package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubac/internal/admission"
	"ubac/internal/core"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// The telemetry sink must keep satisfying the transport's observer
// contract structurally, like it does the WAL's.
var _ Observer = (*telemetry.RegistrySink)(nil)

// newTestController configures a fresh MCI controller the way ubacd
// does; every call yields an identical twin (route selection is
// deterministic), which the bit-identical property test relies on.
func newTestController(t testing.TB) *admission.Controller {
	t.Helper()
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(topology.MCI(), classes)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Configure(map[string]float64{"voice": 0.30})
	if err != nil || !dep.Safe() {
		t.Fatalf("configure: %v", err)
	}
	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// writeStats counts what the server hands to its sockets: Write calls
// and the largest single one, summed over a listener's connections.
type writeStats struct {
	writes   atomic.Int64
	maxWrite atomic.Int64
}

// countingListener wraps every accepted conn so its Writes land in st.
type countingListener struct {
	net.Listener
	st *writeStats
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc, l.st}, nil
}

type countingConn struct {
	net.Conn
	st *writeStats
}

// Write counts before writing, so a peer that has read a response has
// also seen its write counted.
func (c countingConn) Write(b []byte) (int, error) {
	c.st.writes.Add(1)
	for {
		max := c.st.maxWrite.Load()
		if int64(len(b)) <= max || c.st.maxWrite.CompareAndSwap(max, int64(len(b))) {
			break
		}
	}
	return c.Conn.Write(b)
}

// startServer serves a controller on a loopback listener and tears it
// down with the test.
func startServer(t testing.TB, ctrl *admission.Controller, opts Options) (*Server, string) {
	t.Helper()
	srv, addr, _ := startCountedServer(t, ctrl, opts)
	return srv, addr
}

// startCountedServer is startServer with the server-side write counts
// handed back.
func startCountedServer(t testing.TB, ctrl *admission.Controller, opts Options) (*Server, string, *writeStats) {
	t.Helper()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := &writeStats{}
	ln := countingListener{tcp, st}
	srv := NewServer(ctrl, opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String(), st
}

func TestClientEndToEnd(t *testing.T) {
	ctrl := newTestController(t)
	_, addr := startServer(t, ctrl, Options{})
	c, err := Dial(ClientOptions{Addr: addr, Conns: 2, Pipeline: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := ctrl.Classes()
	got := c.Classes()
	if len(got) != len(want) {
		t.Fatalf("classes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("classes %v, want %v", got, want)
		}
	}
	voice, ok := c.ClassIndex("voice")
	if !ok {
		t.Fatal("no voice class")
	}
	routes, err := c.Routes(voice)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) == 0 {
		t.Fatal("no routes for voice")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Concurrent pipelined admits followed by teardowns: the wire path
	// must leave the controller exactly as it found it.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var held []uint64
	errCh := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := routes[w%len(routes)]
			res, err := c.Admit([]AdmitReq{{Class: voice, Src: rt.Src, Dst: rt.Dst}}, nil)
			if err != nil {
				errCh <- err
				return
			}
			if res[0].Status == StatusOK {
				mu.Lock()
				held = append(held, res[0].ID)
				mu.Unlock()
			} else if !StatusRejected(res[0].Status) {
				errCh <- res[0].Err()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if len(held) == 0 {
		t.Fatal("no admits landed")
	}
	statuses, err := c.Teardown(held, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != StatusOK {
			t.Fatalf("teardown %d: status %d", held[i], st)
		}
	}
	if active := ctrl.Stats().Active; active != 0 {
		t.Fatalf("%d flows left active", active)
	}

	// Per-operation verdict mapping: unknown class and unknown flow
	// surface as the admission sentinels, not transport errors.
	res, err := c.Admit([]AdmitReq{{Class: 99, Src: 0, Dst: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err(), admission.ErrUnknownClass) {
		t.Fatalf("bogus class: %v", res[0].Err())
	}
	st, err := c.Teardown([]uint64{1 << 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(StatusErr(st[0]), admission.ErrUnknownFlow) {
		t.Fatalf("bogus teardown: status %d", st[0])
	}
}

// rawConn is a handshaken raw socket for tests that need byte-level
// control over pipelining.
type rawConn struct {
	t       *testing.T
	nc      net.Conn
	pending []byte
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	r := &rawConn{t: t, nc: nc}
	if _, err := nc.Write(Magic[:]); err != nil {
		t.Fatal(err)
	}
	hello := AppendFrame(nil, FrameHello, 0, 0, 1, binary.LittleEndian.AppendUint32(nil, ProtoVersion))
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	f := r.readFrame()
	if f.Type != FrameHello || f.Flags&FlagResp == 0 {
		t.Fatalf("handshake response %+v", f)
	}
	return r
}

// readFrame blocks for the next complete frame, copying its body out
// of the reassembly buffer.
func (r *rawConn) readFrame() Frame {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64<<10)
	for {
		f, n, err := DecodeFrame(r.pending)
		if err == nil {
			body := append([]byte(nil), f.Body...)
			r.pending = r.pending[:copy(r.pending, r.pending[n:])]
			f.Body = body
			return f
		}
		if !errors.Is(err, ErrShort) {
			r.t.Fatalf("decode: %v", err)
		}
		n, rerr := r.nc.Read(buf)
		r.pending = append(r.pending, buf[:n]...)
		if rerr != nil && n == 0 {
			r.t.Fatalf("read: %v", rerr)
		}
	}
}

// wireOp is one scripted operation for the bit-identical test: an
// admit of (class, src, dst) wire indices, or a teardown of the flow
// admitted at position ref.
type wireOp struct {
	admit         bool
	cls, src, dst uint32
	ref           int
}

// TestPipelinedVerdictsBitIdentical is the acceptance property: a
// scripted op sequence pushed through pipelined wire frames (and thus
// the server's coalesced batch calls) must produce byte-for-byte the
// verdict sequence that per-request Controller.Admit/Teardown produces
// on an identical twin controller.
func TestPipelinedVerdictsBitIdentical(t *testing.T) {
	wireCtrl := newTestController(t)
	seqCtrl := newTestController(t)
	_, addr := startServer(t, wireCtrl, Options{})
	rc := rawDial(t, addr)

	classes := seqCtrl.Classes()
	set, err := seqCtrl.ClassRoutes("voice")
	if err != nil {
		t.Fatal(err)
	}
	voiceIdx := uint32(0)
	for i, n := range classes {
		if n == "voice" {
			voiceIdx = uint32(i)
		}
	}
	rng := rand.New(rand.NewSource(9))
	var (
		script   []wireOp
		admitPos []int // script positions of admits, for teardown refs
	)
	for i := 0; i < 600; i++ {
		if len(admitPos) > 0 && rng.Intn(3) == 0 {
			// Teardown a previously admitted position (possibly twice, so
			// ErrUnknownFlow verdicts appear in both paths).
			script = append(script, wireOp{ref: admitPos[rng.Intn(len(admitPos))]})
			continue
		}
		op := wireOp{admit: true, cls: voiceIdx}
		switch rng.Intn(10) {
		case 0:
			op.cls = 99 // unknown class
		case 1:
			op.src, op.dst = 1<<31+5, 2 // index overflow → no route
		case 2:
			op.src, op.dst = 3, 3 // src == dst → no route
		default:
			rt := set.Route(rng.Intn(set.Len()) % 3) // few routes → capacity rejects
			op.src, op.dst = uint32(rt.Src), uint32(rt.Dst)
		}
		admitPos = append(admitPos, len(script))
		script = append(script, op)
	}

	// The sequential twin: per-request calls, recording one status per
	// op. Teardowns resolve refs through the twin's own IDs.
	seqStatus := make([]uint32, len(script))
	seqIDs := make([]uint64, len(script))
	for i, op := range script {
		if op.admit {
			name := ""
			if int(op.cls) < len(classes) {
				name = classes[op.cls]
			}
			id, err := seqCtrl.Admit(name, indexOf(op.src), indexOf(op.dst))
			seqStatus[i] = statusOf(err)
			seqIDs[i] = uint64(id)
		} else {
			seqStatus[i] = statusOf(seqCtrl.Teardown(admission.FlowID(seqIDs[op.ref])))
			seqIDs[op.ref] = 0 // torn down; a second ref is unknown on both paths
		}
	}

	// The wire path: rounds of pipelined frames written in ONE socket
	// write, so the server's read loop sees them together and coalesces.
	// Teardown refs need IDs from earlier rounds, so the script splits
	// wherever a teardown references the current round.
	wireStatus := make([]uint32, len(script))
	wireIDs := make([]uint64, len(script))
	start := 0
	for start < len(script) {
		end, roundStart := start, start
		for end < len(script) && (script[end].admit || script[end].ref < roundStart) {
			end++
		}
		if end == start {
			end++ // lone teardown referencing this round's admit: flush it alone
		}
		var burst []byte
		for i := start; i < end; i++ {
			op := script[i]
			if op.admit {
				body := make([]byte, 0, admitReqUnitLen)
				body = binary.LittleEndian.AppendUint32(body, op.cls)
				body = binary.LittleEndian.AppendUint32(body, op.src)
				body = binary.LittleEndian.AppendUint32(body, op.dst)
				burst = AppendFrame(burst, FrameAdmit, 0, 1, uint64(i+10), body)
			} else {
				body := binary.LittleEndian.AppendUint64(nil, wireIDs[op.ref])
				burst = AppendFrame(burst, FrameTeardown, 0, 1, uint64(i+10), body)
			}
		}
		if _, err := rc.nc.Write(burst); err != nil {
			t.Fatal(err)
		}
		for i := start; i < end; i++ {
			f := rc.readFrame()
			if f.Seq != uint64(i+10) || f.Flags&FlagError != 0 {
				t.Fatalf("op %d: response %+v", i, f)
			}
			if script[i].admit {
				if f.Type != FrameAdmit || len(f.Body) != admitRespUnitLen {
					t.Fatalf("op %d: admit response %+v", i, f)
				}
				wireIDs[i] = binary.LittleEndian.Uint64(f.Body)
				wireStatus[i] = binary.LittleEndian.Uint32(f.Body[8:])
			} else {
				if f.Type != FrameTeardown || len(f.Body) != 1 {
					t.Fatalf("op %d: teardown response %+v", i, f)
				}
				wireStatus[i] = uint32(f.Body[0])
				wireIDs[script[i].ref] = 0
			}
		}
		start = end
	}

	mismatches := 0
	for i := range script {
		if wireStatus[i] != seqStatus[i] {
			t.Errorf("op %d (%+v): wire status %d, sequential %d", i, script[i], wireStatus[i], seqStatus[i])
			if mismatches++; mismatches > 10 {
				break
			}
		}
	}
	if wa, sa := wireCtrl.Stats().Active, seqCtrl.Stats().Active; wa != sa {
		t.Errorf("active flows diverged: wire %d, sequential %d", wa, sa)
	}
	rejected := 0
	for _, st := range wireStatus {
		if st != StatusOK {
			rejected++
		}
	}
	if rejected == 0 || rejected == len(script) {
		t.Fatalf("degenerate script: %d/%d rejected — property not exercised", rejected, len(script))
	}
}

// TestTornFrameDisconnect: a peer that dies mid-frame is cleaned up
// without the partial frame being acted on.
func TestTornFrameDisconnect(t *testing.T) {
	ctrl := newTestController(t)
	srv, addr := startServer(t, ctrl, Options{})
	rc := rawDial(t, addr)

	body := make([]byte, 0, admitReqUnitLen)
	body = binary.LittleEndian.AppendUint32(body, 0)
	body = binary.LittleEndian.AppendUint32(body, 0)
	body = binary.LittleEndian.AppendUint32(body, 1)
	frame := AppendFrame(nil, FrameAdmit, 0, 1, 2, body)
	if _, err := rc.nc.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	rc.nc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ConnCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("torn connection not reaped: %d live", srv.ConnCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if active := ctrl.Stats().Active; active != 0 {
		t.Fatalf("torn frame admitted %d flows", active)
	}
}

// admitFrame encodes one singleton admit of class index 0 (voice).
func admitFrame(seq uint64, src, dst int) []byte {
	body := make([]byte, 0, admitReqUnitLen)
	body = binary.LittleEndian.AppendUint32(body, 0)
	body = binary.LittleEndian.AppendUint32(body, uint32(src))
	body = binary.LittleEndian.AppendUint32(body, uint32(dst))
	return AppendFrame(nil, FrameAdmit, 0, 1, seq, body)
}

// TestOneWritePerReadPass: the connection's goroutine flushes what a
// read pass staged in one Write — a burst that arrives together is
// answered together, a lone frame is answered alone.
func TestOneWritePerReadPass(t *testing.T) {
	ctrl := newTestController(t)
	set, err := ctrl.ClassRoutes("voice")
	if err != nil {
		t.Fatal(err)
	}
	rt := set.Route(0)
	_, addr, st := startCountedServer(t, ctrl, Options{})
	rc := rawDial(t, addr)

	base := st.writes.Load()
	var burst []byte
	for i := 0; i < 8; i++ {
		burst = append(burst, admitFrame(uint64(10+i), rt.Src, rt.Dst)...)
	}
	if _, err := rc.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if f := rc.readFrame(); f.Seq != uint64(10+i) || f.Flags&FlagError != 0 {
			t.Fatalf("burst frame %d: %+v", i, f)
		}
	}
	if got := st.writes.Load() - base; got != 1 {
		t.Fatalf("burst of 8 frames in one client write answered by %d server writes, want 1", got)
	}

	base = st.writes.Load()
	for i := 0; i < 3; i++ {
		if _, err := rc.nc.Write(admitFrame(uint64(20+i), rt.Src, rt.Dst)); err != nil {
			t.Fatal(err)
		}
		if f := rc.readFrame(); f.Seq != uint64(20+i) || f.Flags&FlagError != 0 {
			t.Fatalf("lone frame %d: %+v", i, f)
		}
	}
	if got := st.writes.Load() - base; got != 3 {
		t.Fatalf("3 frames sent one at a time answered by %d server writes, want 3", got)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSlowReaderBackpressure: a peer that pipelines requests but never
// reads responses stalls the connection's flush; the server then stops
// reading (so what the peer keeps sending queues in the kernel, not on
// the server's heap) and drops the peer when the flush outlives
// WriteTimeout.
func TestSlowReaderBackpressure(t *testing.T) {
	ctrl := newTestController(t)
	srv, addr := startServer(t, ctrl, Options{WriteTimeout: 2 * time.Second})
	rc := rawDial(t, addr)

	// Full-size admit frames of unknown-class units: each 48 KiB request
	// produces a 48 KiB response the test never reads.
	body := make([]byte, 0, MaxFrameOps*admitReqUnitLen)
	for i := 0; i < MaxFrameOps; i++ {
		body = binary.LittleEndian.AppendUint32(body, 99)
		body = binary.LittleEndian.AppendUint32(body, 0)
		body = binary.LittleEndian.AppendUint32(body, 1)
	}
	frame := AppendFrame(nil, FrameAdmit, 0, MaxFrameOps, 5, body)

	// Send until a write stalls: both directions' socket buffers are
	// full, so the server is parked in its flush.
	before := liveHeap()
	sent := 0
	for i := 0; i < 2048; i++ { // ≤ 96 MiB
		rc.nc.SetWriteDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := rc.nc.Write(frame)
		sent += n
		if err != nil {
			break
		}
	}
	if sent == 2048*len(frame) {
		t.Fatalf("sent %d bytes without reading a response and never stalled", sent)
	}
	// One response run, one read buffer and the batch scratch are all a
	// connection holds; 2 MiB is several times that and a fraction of
	// what was sent.
	if grew := liveHeap() - before; grew > 2<<20 {
		t.Fatalf("server heap grew %d bytes while a stalled peer sent %d", grew, sent)
	}
	t.Logf("peer sent %d bytes before stalling", sent)

	deadline := time.Now().Add(10 * time.Second)
	for srv.ConnCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow reader not disconnected: %d live", srv.ConnCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProtocolErrorFrameIsFlushed: the error frame a corrupt frame
// provokes is staged by a pass that ends the connection; it must still
// reach the peer before the close.
func TestProtocolErrorFrameIsFlushed(t *testing.T) {
	ctrl := newTestController(t)
	_, addr := startServer(t, ctrl, Options{})
	rc := rawDial(t, addr)

	bad := admitFrame(7, 0, 1)
	bad[4] ^= 0xff // CRC
	if _, err := rc.nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	f := rc.readFrame()
	if f.Flags&FlagError == 0 || f.Flags&FlagResp == 0 || len(f.Body) < 4 ||
		binary.LittleEndian.Uint32(f.Body) != StatusInternal {
		t.Fatalf("want an error frame, got %+v", f)
	}
	rc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := rc.nc.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("after the error frame: read %d bytes, err %v; want EOF", n, err)
	}
}

// TestRoutesDumpFlushesMidPass: one read pass of 1000 routes requests
// stages megabytes of responses; they are flushed as they pass the
// high-water mark, not held until the pass ends.
func TestRoutesDumpFlushesMidPass(t *testing.T) {
	ctrl := newTestController(t)
	set, err := ctrl.ClassRoutes("voice")
	if err != nil {
		t.Fatal(err)
	}
	_, addr, st := startCountedServer(t, ctrl, Options{})
	rc := rawDial(t, addr)

	const requests = 1000
	var burst []byte
	for i := 0; i < requests; i++ {
		burst = AppendFrame(burst, FrameRoutes, 0, 0, uint64(100+i), binary.LittleEndian.AppendUint32(nil, 0))
	}
	if _, err := rc.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	respLen := 0
	for i := 0; i < requests; i++ {
		f := rc.readFrame()
		if f.Type != FrameRoutes || f.Seq != uint64(100+i) || f.Flags != FlagResp || int(f.Count) != set.Len() {
			t.Fatalf("request %d: %+v (want %d routes)", i, f, set.Len())
		}
		respLen = frameHeaderLen + payloadHeaderLen + len(f.Body)
	}
	if total := requests * respLen; total < 8*writeHighWater {
		t.Fatalf("responses total %d bytes: too few to cross the high-water mark", total)
	}
	if max := st.maxWrite.Load(); max >= int64(writeHighWater+respLen) {
		t.Fatalf("largest server write %d bytes, want under high-water %d + one response %d", max, writeHighWater, respLen)
	}
}

// TestGracefulDrain: Shutdown answers every frame already on the wire
// before closing, and refuses new connections afterwards.
func TestGracefulDrain(t *testing.T) {
	ctrl := newTestController(t)
	set, err := ctrl.ClassRoutes("voice")
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, ctrl, Options{DrainGrace: 500 * time.Millisecond})
	rc := rawDial(t, addr)

	const inflight = 8
	var burst []byte
	for i := 0; i < inflight; i++ {
		rt := set.Route(i % set.Len())
		body := make([]byte, 0, admitReqUnitLen)
		body = binary.LittleEndian.AppendUint32(body, 0)
		body = binary.LittleEndian.AppendUint32(body, uint32(rt.Src))
		body = binary.LittleEndian.AppendUint32(body, uint32(rt.Dst))
		burst = AppendFrame(burst, FrameAdmit, 0, 1, uint64(100+i), body)
	}
	if _, err := rc.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Every in-flight frame is answered despite the concurrent drain.
	for i := 0; i < inflight; i++ {
		f := rc.readFrame()
		if f.Type != FrameAdmit || f.Flags&FlagError != 0 {
			t.Fatalf("frame %d: %+v", i, f)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestObserverTelemetry: the registry sink observes connections,
// frames and coalesce depth.
func TestObserverTelemetry(t *testing.T) {
	ctrl := newTestController(t)
	reg := telemetry.NewRegistry()
	sink := telemetry.NewRegistrySink(reg, telemetry.NewRing(16))
	_, addr := startServer(t, ctrl, Options{Observer: sink})
	rc := rawDial(t, addr)

	// Three pipelined single-admit frames in one write: one coalesced
	// batch of 3 ops (or several batches summing to 3 if reads split).
	set, err := ctrl.ClassRoutes("voice")
	if err != nil {
		t.Fatal(err)
	}
	rt := set.Route(0)
	var burst []byte
	for i := 0; i < 3; i++ {
		body := make([]byte, 0, admitReqUnitLen)
		body = binary.LittleEndian.AppendUint32(body, 0)
		body = binary.LittleEndian.AppendUint32(body, uint32(rt.Src))
		body = binary.LittleEndian.AppendUint32(body, uint32(rt.Dst))
		burst = AppendFrame(burst, FrameAdmit, 0, 1, uint64(i+1), body)
	}
	if _, err := rc.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rc.readFrame()
	}
	if got := sink.WireConns.Value(); got < 1 {
		t.Fatalf("connections counter %d", got)
	}
	if got := sink.WireFramesRx.Value(); got < 4 { // hello + 3 admits
		t.Fatalf("frames rx %d", got)
	}
	if got := sink.WireFramesTx.Value(); got < 4 {
		t.Fatalf("frames tx %d", got)
	}
	if got := sink.WireBatchOps.Value(); got != 3 {
		t.Fatalf("coalesced ops %d, want 3", got)
	}
	if b := sink.WireBatches.Value(); b < 1 || b > 3 {
		t.Fatalf("coalesced batches %d", b)
	}
}
