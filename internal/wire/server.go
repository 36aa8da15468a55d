package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ubac/internal/admission"
	"ubac/internal/routes"
)

// Backend answers the admission-shaped frames. The concrete
// *admission.Controller satisfies it structurally; a cluster edge
// node's lease plane is the other implementation — the wire layer does
// not care where verdicts come from, only that batch semantics hold.
type Backend interface {
	AdmitBatch(items []admission.BatchItem, results []admission.BatchResult) []admission.BatchResult
	TeardownBatch(ids []admission.FlowID, errs []error) []error
	Classes() []string
	ClassRoutes(class string) (*routes.Set, error)
}

// ClusterHandler answers the cluster frames (lease, heartbeat, fetch,
// revoke) on behalf of a cluster node. The wire layer hands over the
// raw decoded frame and a buffer of the connection's to append the
// response body to (dst, empty; the returned respBody is dst extended,
// and becomes the connection's buffer), and encodes what comes back;
// body layouts are the cluster package's business. A non-zero
// errStatus becomes a protocol-error response frame (the connection
// stays up — cluster peers ride the same connections as admission
// traffic).
type ClusterHandler interface {
	ClusterFrame(typ byte, count uint16, body, dst []byte) (respCount uint16, respBody []byte, errStatus uint32, errMsg string)
}

// Observer receives transport telemetry; the telemetry RegistrySink
// satisfies it structurally. Implementations must be cheap and safe
// for concurrent use — every method is on a connection's hot path.
type Observer interface {
	// WireConnOpened / WireConnClosed bracket one accepted connection.
	WireConnOpened()
	WireConnClosed()
	// WireRead reports one read pass: complete frames decoded and
	// payload bytes consumed.
	WireRead(frames, bytes int)
	// WireWrite reports response frames and bytes handed to the socket.
	WireWrite(frames, bytes int)
	// WireCoalesce reports one coalesced batch call: how many pipelined
	// frames were drained into it and how many operations they carried.
	WireCoalesce(frames, ops int)
}

// Options tunes a Server. The zero value is production-ready.
type Options struct {
	// Observer receives transport telemetry (nil = none).
	Observer Observer
	// ReadBuffer is the initial per-connection read buffer (default
	// 64 KiB; grows up to a full frame when one exceeds it).
	ReadBuffer int
	// WriteTimeout bounds one flush of staged responses; a peer that
	// stops draining its receive window is disconnected (default 10s).
	WriteTimeout time.Duration
	// DrainGrace is how long Shutdown keeps reading already-sent bytes
	// so in-flight frames complete and get answered (default 100ms).
	DrainGrace time.Duration
	// HandshakeTimeout bounds the magic + hello exchange (default 5s).
	HandshakeTimeout time.Duration
	// Cluster handles the cluster frame types; nil (the default) leaves
	// them protocol errors, so a non-cluster daemon is byte-for-byte
	// unchanged.
	Cluster ClusterHandler
}

func (o Options) withDefaults() Options {
	if o.ReadBuffer <= 0 {
		o.ReadBuffer = 64 << 10
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 100 * time.Millisecond
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	return o
}

// Server serves admission decisions over the binary wire protocol:
// one goroutine per connection, reused frame buffers, and adaptive
// admit coalescing — every complete frame a read pass delivers is
// drained into as few Controller batch calls as operation ordering
// allows, and the pass's responses leave in one write.
type Server struct {
	ctrl    Backend
	classes []string
	opts    Options

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*serverConn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewServer builds a wire server over a configured backend (the
// admission controller, on a cluster member too). The class table
// snapshot taken here is what hello responses advertise; it is
// immutable for the backend's lifetime.
func NewServer(ctrl Backend, opts Options) *Server {
	return &Server{
		ctrl:    ctrl,
		classes: ctrl.Classes(),
		opts:    opts.withDefaults(),
		conns:   make(map[*serverConn]struct{}),
	}
}

// Serve accepts connections on ln until Shutdown (returns nil) or an
// unrecoverable accept error (returned).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server is shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		c := s.newConn(nc)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown drains: the listener closes, every connection finishes and
// answers the frames it has already received (kept alive for
// DrainGrace so bytes in flight still land), pending responses flush,
// then connections close. It returns when every connection is done or
// ctx expires, in which case stragglers are closed hard.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// ConnCount returns the number of live connections (test hook).
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// serverConn is one accepted connection, run by one goroutine: it
// reads, decodes and coalesces frames, stages their responses and
// writes them itself.
type serverConn struct {
	srv *Server
	nc  net.Conn

	// Responses staged since the last flush. Only the connection's own
	// goroutine touches these, so there is no lock.
	wbuf    []byte
	wframes int  // frames staged in wbuf, for the observer
	wErr    bool // a flush failed; the connection is finished

	draining atomic.Bool

	// Reader scratch, reused across read passes.
	frames   []Frame
	items    []admission.BatchItem
	results  []admission.BatchResult
	tids     []admission.FlowID
	terrs    []error
	runLens  []int // ops per frame in the current coalesced run
	runSeqs  []uint64
	respBody []byte
	resp     []byte
}

func (s *Server) newConn(nc net.Conn) *serverConn {
	return &serverConn{srv: s, nc: nc, wbuf: make([]byte, 0, 16<<10)}
}

// beginDrain stops the connection accepting new work soon: reads keep
// landing for DrainGrace (so frames already on the wire complete and
// get answered), then the read loop sees the deadline and returns.
func (c *serverConn) beginDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now().Add(c.srv.opts.DrainGrace))
}

// serve runs the connection to completion.
func (c *serverConn) serve() {
	obs := c.srv.opts.Observer
	if obs != nil {
		obs.WireConnOpened()
	}
	c.readLoop()
	// The read loop is done (error, EOF or drain). A pass that ended in
	// a protocol error left its error frame staged: send it, best
	// effort, then tear the socket down and unregister.
	c.flush()
	c.nc.Close()
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
	c.srv.wg.Done()
	if obs != nil {
		obs.WireConnClosed()
	}
}

// readLoop validates the preamble then decodes, coalesces and answers
// frames until the connection ends. Each read pass ends with one flush
// of everything it staged: an idle connection answers a lone frame
// without a hand-off to another goroutine, and a saturated one still
// sends the whole pass in one syscall.
func (c *serverConn) readLoop() {
	c.nc.SetReadDeadline(time.Now().Add(c.srv.opts.HandshakeTimeout))
	var magic [8]byte
	if _, err := readFull(c.nc, magic[:]); err != nil || magic != Magic {
		return
	}
	c.nc.SetReadDeadline(time.Time{})
	if c.draining.Load() {
		// Shutdown raced the handshake; don't serve new work.
		return
	}

	pending := make([]byte, 0, c.srv.opts.ReadBuffer)
	helloed := false
	for {
		if len(pending) == cap(pending) {
			// An incomplete frame fills the buffer: grow toward the frame
			// cap so one max-size frame always fits.
			grown := make([]byte, len(pending), min2(2*cap(pending), MaxPayload+frameHeaderLen))
			copy(grown, pending)
			pending = grown
		}
		n, err := c.nc.Read(pending[len(pending):cap(pending):cap(pending)])
		pending = pending[:len(pending)+n]
		if n > 0 {
			consumed, ok := c.process(pending, &helloed)
			if !ok || !c.flush() {
				return
			}
			if consumed > 0 {
				pending = pending[:copy(pending, pending[consumed:])]
			}
		}
		if err != nil {
			// A torn frame tail (len(pending) > 0) is dropped whole, like
			// a torn WAL tail: the frame is the atomicity unit. During a
			// drain the deadline firing is the signal that in-flight
			// frames have been given their grace.
			return
		}
	}
}

// process decodes every complete frame in pending and answers it,
// coalescing run-adjacent admit and teardown frames into single batch
// calls. It returns the bytes consumed and false when the connection
// must close (protocol error).
func (c *serverConn) process(pending []byte, helloed *bool) (int, bool) {
	c.frames = c.frames[:0]
	consumed := 0
	for {
		f, n, err := DecodeFrame(pending[consumed:])
		if err != nil {
			if errors.Is(err, ErrShort) {
				break
			}
			// Corrupt framing: nothing after this point can be trusted.
			c.enqueueFrame(appendErrorFrame(c.scratch(), f.Type, 0, StatusInternal, err.Error()), 1)
			return consumed, false
		}
		consumed += n
		c.frames = append(c.frames, f)
	}
	if obs := c.srv.opts.Observer; obs != nil && len(c.frames) > 0 {
		obs.WireRead(len(c.frames), consumed)
	}

	i := 0
	for i < len(c.frames) {
		f := c.frames[i]
		if !*helloed {
			if f.Type != FrameHello {
				c.enqueueFrame(appendErrorFrame(c.scratch(), f.Type, f.Seq, StatusInternal, "hello required first"), 1)
				return consumed, false
			}
			if !c.handleHello(f) {
				return consumed, false
			}
			*helloed = true
			i++
			continue
		}
		switch f.Type {
		case FrameAdmit:
			j := i
			for j < len(c.frames) && c.frames[j].Type == FrameAdmit {
				j++
			}
			if !c.handleAdmitRun(c.frames[i:j]) {
				return consumed, false
			}
			i = j
		case FrameTeardown:
			j := i
			for j < len(c.frames) && c.frames[j].Type == FrameTeardown {
				j++
			}
			if !c.handleTeardownRun(c.frames[i:j]) {
				return consumed, false
			}
			i = j
		case FrameRoutes:
			if !c.handleRoutes(f) {
				return consumed, false
			}
			i++
		case FramePing:
			c.enqueueFrame(AppendFrame(c.scratch(), FramePing, FlagResp, 0, f.Seq, nil), 1)
			i++
		case FrameHello:
			// A second hello is a client bug, but harmless: re-ack.
			if !c.handleHello(f) {
				return consumed, false
			}
			i++
		case FrameLease, FrameHeartbeat, FrameFetch, FrameRevoke:
			h := c.srv.opts.Cluster
			if h == nil {
				c.enqueueFrame(appendErrorFrame(c.scratch(), f.Type, f.Seq, StatusInternal,
					fmt.Sprintf("cluster frame 0x%02x on a non-cluster server", f.Type)), 1)
				return consumed, false
			}
			count, body, status, msg := h.ClusterFrame(f.Type, f.Count, f.Body, c.respBody[:0])
			if status != StatusOK {
				c.resp = appendErrorFrame(c.scratch(), f.Type, f.Seq, status, msg)
			} else {
				c.respBody = body
				c.resp = AppendFrame(c.scratch(), f.Type, FlagResp, count, f.Seq, body)
			}
			if !c.enqueueFrame(c.resp, 1) {
				return consumed, false
			}
			i++
		default:
			c.enqueueFrame(appendErrorFrame(c.scratch(), f.Type, f.Seq, StatusInternal,
				fmt.Sprintf("unknown frame type 0x%02x", f.Type)), 1)
			return consumed, false
		}
	}
	return consumed, true
}

// scratch returns the per-connection response build buffer, reset.
func (c *serverConn) scratch() []byte {
	c.resp = c.resp[:0]
	return c.resp
}

// handleHello validates the version and answers with the class table.
func (c *serverConn) handleHello(f Frame) bool {
	if len(f.Body) < 4 || binary.LittleEndian.Uint32(f.Body) != ProtoVersion {
		c.enqueueFrame(appendErrorFrame(c.scratch(), FrameHello, f.Seq, StatusInternal, "unsupported protocol version"), 1)
		return false
	}
	body := c.respBody[:0]
	body = binary.LittleEndian.AppendUint32(body, ProtoVersion)
	for _, name := range c.srv.classes {
		body = append(body, byte(len(name)))
		body = append(body, name...)
	}
	c.respBody = body
	return c.enqueueFrame(AppendFrame(c.scratch(), FrameHello, FlagResp, uint16(len(c.srv.classes)), f.Seq, body), 1)
}

// checkUnits validates a batch-shaped frame's count against its body.
func checkUnits(f Frame, unitLen int) bool {
	return int(f.Count) <= MaxFrameOps && len(f.Body) == int(f.Count)*unitLen
}

// handleAdmitRun drains one run of pipelined admit frames into as few
// AdmitBatch calls as the op cap allows (usually one) and answers
// each frame in order — the adaptive coalescing: depth follows
// whatever was in flight on the connection. AdmitBatch registers a
// whole batch in one registry shard, so a call carries at most
// MaxFrameOps operations — coalescing amortizes cost, it must not
// create outcomes (shard exhaustion) per-frame processing could not.
// Runs longer than the cap split at frame boundaries.
func (c *serverConn) handleAdmitRun(run []Frame) bool {
	for len(run) > 0 {
		c.items = c.items[:0]
		c.runLens = c.runLens[:0]
		c.runSeqs = c.runSeqs[:0]
		for len(run) > 0 && (len(c.runLens) == 0 || len(c.items)+int(run[0].Count) <= MaxFrameOps) {
			f := run[0]
			if !checkUnits(f, admitReqUnitLen) {
				c.enqueueFrame(appendErrorFrame(c.scratch(), FrameAdmit, f.Seq, StatusInternal, "admit frame count/body mismatch"), 1)
				return false
			}
			for off := 0; off < len(f.Body); off += admitReqUnitLen {
				class := binary.LittleEndian.Uint32(f.Body[off:])
				src := binary.LittleEndian.Uint32(f.Body[off+4:])
				dst := binary.LittleEndian.Uint32(f.Body[off+8:])
				c.items = append(c.items, admission.BatchItem{
					Class: c.className(class),
					Src:   indexOf(src),
					Dst:   indexOf(dst),
				})
			}
			c.runLens = append(c.runLens, int(f.Count))
			c.runSeqs = append(c.runSeqs, f.Seq)
			run = run[1:]
		}
		if obs := c.srv.opts.Observer; obs != nil {
			obs.WireCoalesce(len(c.runLens), len(c.items))
		}
		c.results = c.srv.ctrl.AdmitBatch(c.items, c.results[:0])

		k := 0
		resp := c.scratch()
		for fi := range c.runLens {
			body := c.respBody[:0]
			for u := 0; u < c.runLens[fi]; u++ {
				r := c.results[k]
				k++
				body = binary.LittleEndian.AppendUint64(body, uint64(r.ID))
				body = binary.LittleEndian.AppendUint32(body, statusOf(r.Err))
			}
			c.respBody = body
			resp = AppendFrame(resp, FrameAdmit, FlagResp, uint16(c.runLens[fi]), c.runSeqs[fi], body)
		}
		c.resp = resp
		if !c.enqueueFrame(resp, len(c.runLens)) {
			return false
		}
	}
	return true
}

// handleTeardownRun coalesces a run of teardown frames into
// TeardownBatch calls, mirroring handleAdmitRun.
func (c *serverConn) handleTeardownRun(run []Frame) bool {
	for len(run) > 0 {
		c.tids = c.tids[:0]
		c.runLens = c.runLens[:0]
		c.runSeqs = c.runSeqs[:0]
		for len(run) > 0 && (len(c.runLens) == 0 || len(c.tids)+int(run[0].Count) <= MaxFrameOps) {
			f := run[0]
			if !checkUnits(f, teardownUnitLen) {
				c.enqueueFrame(appendErrorFrame(c.scratch(), FrameTeardown, f.Seq, StatusInternal, "teardown frame count/body mismatch"), 1)
				return false
			}
			for off := 0; off < len(f.Body); off += teardownUnitLen {
				c.tids = append(c.tids, admission.FlowID(binary.LittleEndian.Uint64(f.Body[off:])))
			}
			c.runLens = append(c.runLens, int(f.Count))
			c.runSeqs = append(c.runSeqs, f.Seq)
			run = run[1:]
		}
		if obs := c.srv.opts.Observer; obs != nil {
			obs.WireCoalesce(len(c.runLens), len(c.tids))
		}
		c.terrs = c.srv.ctrl.TeardownBatch(c.tids, c.terrs[:0])

		k := 0
		resp := c.scratch()
		for fi := range c.runLens {
			body := c.respBody[:0]
			for u := 0; u < c.runLens[fi]; u++ {
				body = append(body, byte(statusOf(c.terrs[k])))
				k++
			}
			c.respBody = body
			resp = AppendFrame(resp, FrameTeardown, FlagResp, uint16(c.runLens[fi]), c.runSeqs[fi], body)
		}
		c.resp = resp
		if !c.enqueueFrame(resp, len(c.runLens)) {
			return false
		}
	}
	return true
}

// handleRoutes answers the configured (class, src, dst) tuples for one
// class index (or all), chunked at MaxFrameOps units per frame with
// FlagMore on every frame but the last.
func (c *serverConn) handleRoutes(f Frame) bool {
	if len(f.Body) != 4 {
		c.enqueueFrame(appendErrorFrame(c.scratch(), FrameRoutes, f.Seq, StatusInternal, "routes request body must be one u32"), 1)
		return false
	}
	want := binary.LittleEndian.Uint32(f.Body)
	first, last := 0, len(c.srv.classes)
	if want != AllClasses {
		if want >= uint32(len(c.srv.classes)) {
			c.enqueueFrame(appendErrorFrame(c.scratch(), FrameRoutes, f.Seq, StatusUnknownClass, "unknown class index"), 1)
			return true
		}
		first, last = int(want), int(want)+1
	}
	var units []RoutePair
	for ci := first; ci < last; ci++ {
		set, err := c.srv.ctrl.ClassRoutes(c.srv.classes[ci])
		if err != nil {
			continue
		}
		for i := 0; i < set.Len(); i++ {
			rt := set.Route(i)
			units = append(units, RoutePair{Class: uint32(ci), Src: uint32(rt.Src), Dst: uint32(rt.Dst)})
		}
	}
	for {
		chunk := units
		if len(chunk) > MaxFrameOps {
			chunk = chunk[:MaxFrameOps]
		}
		units = units[len(chunk):]
		body := c.respBody[:0]
		for _, u := range chunk {
			body = binary.LittleEndian.AppendUint32(body, u.Class)
			body = binary.LittleEndian.AppendUint32(body, u.Src)
			body = binary.LittleEndian.AppendUint32(body, u.Dst)
		}
		c.respBody = body
		flags := byte(FlagResp)
		if len(units) > 0 {
			flags |= FlagMore
		}
		if !c.enqueueFrame(AppendFrame(c.scratch(), FrameRoutes, flags, uint16(len(chunk)), f.Seq, body), 1) {
			return false
		}
		if len(units) == 0 {
			return true
		}
	}
}

// className maps a wire class index to its configured name; out of
// range yields "", which AdmitBatch rejects as ErrUnknownClass — the
// per-operation semantics fall out of the controller's own checks.
func (c *serverConn) className(idx uint32) string {
	if int64(idx) < int64(len(c.srv.classes)) {
		return c.srv.classes[idx]
	}
	return ""
}

// indexOf narrows a wire router index to int; values beyond int32 are
// folded to -1, which routeIndex rejects as ErrNoRoute.
func indexOf(v uint32) int {
	if v > math.MaxInt32 {
		return -1
	}
	return int(v)
}

// writeHighWater is the staged-response size at which enqueueFrame
// flushes without waiting for the end of the read pass. It is what
// bounds a connection's response memory (to this plus one coalesced
// run's or one cluster frame's response): a pass of pipelined routes
// requests stages a full dump per request.
const writeHighWater = 64 << 10

// enqueueFrame stages an encoded response, flushing mid-pass once the
// staged bytes reach writeHighWater. It returns false when the
// connection is finished (a flush failed).
func (c *serverConn) enqueueFrame(encoded []byte, frames int) bool {
	c.wbuf = append(c.wbuf, encoded...)
	c.wframes += frames
	if len(c.wbuf) >= writeHighWater {
		return c.flush()
	}
	return true
}

// flush writes the staged responses in one Write bounded by
// WriteTimeout: a peer that has stopped reading fills its receive
// window, the write stalls past the deadline and the connection is
// dropped. It returns false when the connection is finished.
func (c *serverConn) flush() bool {
	if c.wErr {
		return false
	}
	if len(c.wbuf) == 0 {
		return true
	}
	// Counted before the write: a peer that has read a response finds it
	// in the counters.
	if obs := c.srv.opts.Observer; obs != nil {
		obs.WireWrite(c.wframes, len(c.wbuf))
	}
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.opts.WriteTimeout))
	_, err := c.nc.Write(c.wbuf)
	c.wbuf, c.wframes = c.wbuf[:0], 0
	c.wErr = err != nil
	return !c.wErr
}

// readFull is io.ReadFull without the io import dance for short reads
// on a net.Conn.
func readFull(nc net.Conn, b []byte) (int, error) {
	read := 0
	for read < len(b) {
		n, err := nc.Read(b[read:])
		read += n
		if err != nil {
			return read, err
		}
	}
	return read, nil
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
