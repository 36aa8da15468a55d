package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ubac/internal/admission"
	"ubac/internal/routes"
	"ubac/internal/telemetry"
	"ubac/internal/wal"
	"ubac/internal/wire"
)

// Tracing is done entirely from the benchmark's side of the public
// seams the stack already has — wire.Backend, admission.Journal,
// telemetry.Sink, wire.Observer, wal.Observer — plus client-side spans
// around wire.Client calls. Spans stay in memory until the run ends.
//
// Span tree of one frame:
//
//	client frame (root; RTT as the load generator saw it)
//	└─ backend call (AdmitBatch / TeardownBatch as the wire server made it)
//	   ├─ journal append (wal staging; one per call)
//	   └─ sink decisions (telemetry; one per op, every sinkSample-th timed)
//
// Self time is a span minus its children: wire = frame − backend call,
// admission = backend call − journal − sink.
//
// Two things the seams do not expose shape the accounting. A coalesced
// backend call serves several frames and the server does not say
// which, so the call carries its frame count instead of a parent id,
// and trace.residual_ratio is exactly the time that counting a
// coalesced call once per frame it served adds over counting it once.
// And Go has no goroutine-local storage, so to know which backend call
// a sink or journal call belongs to, the traced backend admits one
// call at a time (the wait for that lock lands in wire self time);
// trace.overhead_ratio reports what all of this costs.

const (
	spanAdmit    = 1
	spanTeardown = 2

	// sinkSample: every sinkSample-th Decision is timed. Timing costs
	// two clock reads (~50 ns) against a ~170 ns Decision.
	sinkSample = 16
)

type clientSpanRec struct {
	ID    int64 `json:"id"`
	Kind  uint8 `json:"kind"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Ops   int32 `json:"ops"`
}

type backendSpanRec struct {
	ID        int64 `json:"id"`
	Kind      uint8 `json:"kind"`
	Start     int64 `json:"start_ns"`
	End       int64 `json:"end_ns"`
	Ops       int32 `json:"ops"`
	Frames    int32 `json:"frames"` // client frames this call served (its parents)
	SinkCalls int32 `json:"sink_calls"`
	JournalNS int64 `json:"journal_ns"` // child span: the call's journal append
}

type sinkSpanRec struct {
	Parent int64 `json:"parent"` // backend span id
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

type tracer struct {
	origin time.Time

	cmu    sync.Mutex
	client []clientSpanRec

	// bmu admits one backend call at a time; cur is that call's span.
	bmu     sync.Mutex
	cur     backendSpanRec
	inCall  bool
	backend []backendSpanRec
	sinks   []sinkSpanRec
	tick    int

	// pending holds WireCoalesce reports not yet claimed by the backend
	// call they precede.
	pmu     sync.Mutex
	pending []coalesceRec

	rxBytes, txBytes atomic.Uint64

	wmu      sync.Mutex
	fsyncs   *hist
	walBytes uint64
	walRecs  uint64
}

type coalesceRec struct{ frames, ops int }

// newTracer returns a tracer whose clock origin the caller sets (to
// the load generator's) before traffic starts.
func newTracer() *tracer { return &tracer{fsyncs: newHist()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) clientSpan(kind uint8, t0, t1 int64, ops int) {
	t.cmu.Lock()
	t.client = append(t.client, clientSpanRec{ID: int64(len(t.client) + 1), Kind: kind, Start: t0, End: t1, Ops: int32(ops)})
	t.cmu.Unlock()
}

// claimFrames pops the coalesce report matching a backend call of the
// given size; 1 when the server reported none.
func (t *tracer) claimFrames(ops int) int {
	t.pmu.Lock()
	defer t.pmu.Unlock()
	for i, p := range t.pending {
		if p.ops == ops {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return p.frames
		}
	}
	return 1
}

func (t *tracer) begin(kind uint8, ops int) {
	frames := t.claimFrames(ops)
	t.bmu.Lock()
	t.cur = backendSpanRec{ID: int64(len(t.backend) + 1), Kind: kind, Ops: int32(ops), Frames: int32(frames), Start: t.now()}
	t.inCall = true
}

func (t *tracer) end() {
	t.cur.End = t.now()
	t.backend = append(t.backend, t.cur)
	t.inCall = false
	t.bmu.Unlock()
}

// tracedBackend decorates the wire server's Backend.
type tracedBackend struct {
	inner wire.Backend
	tr    *tracer
}

func (b tracedBackend) AdmitBatch(items []admission.BatchItem, results []admission.BatchResult) []admission.BatchResult {
	b.tr.begin(spanAdmit, len(items))
	results = b.inner.AdmitBatch(items, results)
	b.tr.end()
	return results
}

func (b tracedBackend) TeardownBatch(ids []admission.FlowID, errs []error) []error {
	b.tr.begin(spanTeardown, len(ids))
	errs = b.inner.TeardownBatch(ids, errs)
	b.tr.end()
	return errs
}

func (b tracedBackend) Classes() []string { return b.inner.Classes() }

func (b tracedBackend) ClassRoutes(class string) (*routes.Set, error) {
	return b.inner.ClassRoutes(class)
}

// tracedSink decorates the controller's telemetry sink. Decisions
// arrive only from inside a backend call, which holds tr.bmu, so the
// span fields need no further locking.
type tracedSink struct {
	telemetry.Sink
	tr *tracer
}

func (s tracedSink) Decision(d telemetry.Decision) {
	t := s.tr
	if !t.inCall {
		s.Sink.Decision(d)
		return
	}
	t.cur.SinkCalls++
	t.tick++
	if t.tick%sinkSample != 0 {
		s.Sink.Decision(d)
		return
	}
	t0 := t.now()
	s.Sink.Decision(d)
	t.sinks = append(t.sinks, sinkSpanRec{Parent: t.cur.ID, Start: t0, End: t.now()})
}

// tracedJournal decorates the controller's durability journal.
type tracedJournal struct {
	inner admission.Journal
	tr    *tracer
}

func (j tracedJournal) timed(f func() error) error {
	t0 := j.tr.now()
	err := f()
	if j.tr.inCall {
		j.tr.cur.JournalNS += j.tr.now() - t0
	}
	return err
}

func (j tracedJournal) AppendAdmit(id, seq uint64, class, route int32) error {
	return j.timed(func() error { return j.inner.AppendAdmit(id, seq, class, route) })
}

func (j tracedJournal) AppendAdmitBatch(ids []uint64, seqBase uint64, classes, routes []int32) error {
	return j.timed(func() error { return j.inner.AppendAdmitBatch(ids, seqBase, classes, routes) })
}

func (j tracedJournal) AppendTeardown(id uint64) error {
	return j.timed(func() error { return j.inner.AppendTeardown(id) })
}

func (j tracedJournal) AppendTeardownBatch(ids []uint64) error {
	return j.timed(func() error { return j.inner.AppendTeardownBatch(ids) })
}

// tracedWireObs decorates the wire server's Observer.
type tracedWireObs struct {
	wire.Observer
	tr *tracer
}

func (o tracedWireObs) WireRead(frames, bytes int) {
	o.tr.rxBytes.Add(uint64(bytes))
	o.Observer.WireRead(frames, bytes)
}

func (o tracedWireObs) WireWrite(frames, bytes int) {
	o.tr.txBytes.Add(uint64(bytes))
	o.Observer.WireWrite(frames, bytes)
}

func (o tracedWireObs) WireCoalesce(frames, ops int) {
	o.tr.pmu.Lock()
	o.tr.pending = append(o.tr.pending, coalesceRec{frames, ops})
	o.tr.pmu.Unlock()
	o.Observer.WireCoalesce(frames, ops)
}

// tracedWALObs decorates the WAL's Observer.
type tracedWALObs struct {
	wal.Observer
	tr *tracer
}

func (o tracedWALObs) WALAppend(records, bytes int) {
	o.tr.wmu.Lock()
	o.tr.walRecs += uint64(records)
	o.tr.walBytes += uint64(bytes)
	o.tr.wmu.Unlock()
	o.Observer.WALAppend(records, bytes)
}

func (o tracedWALObs) WALSync(d time.Duration) {
	o.tr.wmu.Lock()
	o.tr.fsyncs.record(int64(d))
	o.tr.wmu.Unlock()
	o.Observer.WALSync(d)
}

// traceSummary is the per-layer accounting of one traced window.
type traceSummary struct {
	Frames, Ops               uint64
	BackendCalls              uint64
	RTTNS                     float64 // Σ client frame RTT
	BackendNS                 float64 // Σ backend call, each once
	BackendPerFrameNS         float64 // Σ backend call × frames it served
	SinkNS, JournalNS         float64
	SinkMeanNS                float64
	WireSelfUSPerFrame        float64
	AdmissionSelfNSPerOp      float64
	SinkNSPerOp               float64
	JournalNSPerOp            float64
	OpsPerCall, FramesPerCall float64
	BytesPerOp                float64
	ResidualRatio             float64
}

// summarize accounts the spans that ended inside [from, to).
func (t *tracer) summarize(from, to int64) traceSummary {
	var s traceSummary
	var sinkSampled float64
	for _, sp := range t.sinks {
		sinkSampled += float64(sp.End - sp.Start)
	}
	if n := len(t.sinks); n > 0 {
		s.SinkMeanNS = sinkSampled / float64(n)
	}
	for _, c := range t.client {
		if c.End < from || c.End >= to {
			continue
		}
		s.Frames++
		s.Ops += uint64(c.Ops)
		s.RTTNS += float64(c.End - c.Start)
	}
	var backendOps, backendFrames float64
	for _, b := range t.backend {
		if b.End < from || b.End >= to {
			continue
		}
		d := float64(b.End - b.Start)
		s.BackendCalls++
		s.BackendNS += d
		s.BackendPerFrameNS += d * float64(b.Frames)
		s.SinkNS += float64(b.SinkCalls) * s.SinkMeanNS
		s.JournalNS += float64(b.JournalNS)
		backendOps += float64(b.Ops)
		backendFrames += float64(b.Frames)
	}
	if s.Frames > 0 {
		s.WireSelfUSPerFrame = (s.RTTNS - s.BackendPerFrameNS) / float64(s.Frames) / 1e3
	}
	if backendOps > 0 {
		s.AdmissionSelfNSPerOp = (s.BackendNS - s.SinkNS - s.JournalNS) / backendOps
		s.SinkNSPerOp = s.SinkNS / backendOps
		s.JournalNSPerOp = s.JournalNS / backendOps
	}
	if s.BackendCalls > 0 {
		s.OpsPerCall = backendOps / float64(s.BackendCalls)
		s.FramesPerCall = backendFrames / float64(s.BackendCalls)
	}
	if s.RTTNS > 0 {
		s.ResidualRatio = (s.BackendPerFrameNS - s.BackendNS) / s.RTTNS
	}
	return s
}

// dump writes every span to path as one JSON document.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Client  []clientSpanRec  `json:"client_frames"`
		Backend []backendSpanRec `json:"backend_calls"`
		Sink    []sinkSpanRec    `json:"sink_decisions_sampled"`
	}{t.client, t.backend, t.sinks})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
