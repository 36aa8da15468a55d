package telemetry

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestVerdictStringsAndReasons(t *testing.T) {
	cases := []struct {
		v       Verdict
		s, r    string
		rejects bool
	}{
		{Admitted, "admit", "", false},
		{TornDown, "teardown", "", false},
		{RejectedCapacity, "reject", "capacity", true},
		{RejectedNoRoute, "reject", "no_route", true},
		{RejectedUnknownClass, "reject", "unknown_class", true},
	}
	for _, c := range cases {
		if c.v.String() != c.s || c.v.Reason() != c.r || c.v.Rejected() != c.rejects {
			t.Errorf("verdict %d: got (%q,%q,%v), want (%q,%q,%v)",
				c.v, c.v.String(), c.v.Reason(), c.v.Rejected(), c.s, c.r, c.rejects)
		}
	}
}

func TestActive(t *testing.T) {
	if Active(nil) || Active(Nop{}) {
		t.Error("nil/Nop must be inactive")
	}
	if !Active(NewRegistrySink(NewRegistry(), nil)) {
		t.Error("RegistrySink must be active")
	}
}

// TestConcurrentCountersAndHistogram hammers one counter, gauge, and
// histogram from many goroutines; run under -race this is the lock-free
// safety test, and the totals check the arithmetic.
func TestConcurrentCountersAndHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "c")
	g := reg.Gauge("g", "g")
	h := reg.Histogram("h_seconds", "h")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(time.Duration(i%1000) * time.Nanosecond)
			}
		}(w)
	}
	// Concurrent scrapes must not race with writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", Label{"reason", "capacity"})
	b := reg.Counter("x_total", "x", Label{"reason", "capacity"})
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	other := reg.Counter("x_total", "x", Label{"reason", "no_route"})
	if a == other {
		t.Error("different labels must return different counters")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch must panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

// TestPrometheusGolden locks the exposition format: deterministic
// operations, full-output comparison.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ubac_admit_total", "Flows admitted.").Add(3)
	reg.Counter("ubac_reject_total", "Flows rejected, by reason.", Label{"reason", "capacity"}).Add(2)
	reg.Counter("ubac_reject_total", "Flows rejected, by reason.", Label{"reason", "no_route"}).Inc()
	reg.Gauge("ubac_active_flows", "Currently admitted flows.").Set(3)
	h := reg.Histogram("tiny_seconds", "Tiny two-bucket demo.")
	h.Observe(1 * time.Nanosecond) // bucket 1 (le 2e-09)
	h.Observe(3 * time.Nanosecond) // bucket 2 (le 4e-09)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	want := `# HELP tiny_seconds Tiny two-bucket demo.
# TYPE tiny_seconds histogram
tiny_seconds_bucket{le="1e-09"} 0
tiny_seconds_bucket{le="2e-09"} 1
tiny_seconds_bucket{le="4e-09"} 2
tiny_seconds_bucket{le="8e-09"} 2
`
	if !strings.Contains(out, want) {
		t.Errorf("histogram exposition mismatch; output:\n%s", out)
	}
	for _, line := range []string{
		"# HELP ubac_admit_total Flows admitted.",
		"# TYPE ubac_admit_total counter",
		"ubac_admit_total 3",
		"# TYPE ubac_reject_total counter",
		`ubac_reject_total{reason="capacity"} 2`,
		`ubac_reject_total{reason="no_route"} 1`,
		"# TYPE ubac_active_flows gauge",
		"ubac_active_flows 3",
		`tiny_seconds_bucket{le="+Inf"} 2`,
		"tiny_seconds_sum 4e-09",
		"tiny_seconds_count 2",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing exposition line %q; output:\n%s", line, out)
		}
	}
	// Families sorted by name: ubac_active_flows before ubac_admit_total?
	// No — "active" < "admit" lexically; just assert deterministic order
	// by re-rendering.
	var sb2 strings.Builder
	if err := reg.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("exposition output is not deterministic")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Nanosecond) // bucket 7, le 128ns
	}
	h.Observe(10 * time.Microsecond) // the single max
	if q := h.Quantile(0.5); q != 128*time.Nanosecond {
		t.Errorf("p50 = %v, want 128ns", q)
	}
	if q := h.Quantile(1); q != 10*time.Microsecond {
		t.Errorf("p100 = %v, want clamped max 10µs", q)
	}
	if h.Max() != 10*time.Microsecond {
		t.Errorf("max = %v", h.Max())
	}
	if h.Mean() == 0 {
		t.Error("mean = 0")
	}
	var empty Histogram
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

// add records one event: a run of one.
func (r *Ring) add(rec record) uint64 {
	return r.appendRun(1, func(_ int, slot *record) { *slot = rec })
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(8)
	if r.Cap() != 8 {
		t.Fatalf("cap = %d", r.Cap())
	}
	for i := 1; i <= 20; i++ {
		r.add(record{FlowID: uint64(i)})
	}
	if r.Total() != 20 {
		t.Errorf("total = %d", r.Total())
	}
	evs := r.Snapshot(0)
	if len(evs) != 8 {
		t.Fatalf("snapshot len = %d, want 8", len(evs))
	}
	// Newest first: seq 20 down to 13.
	for i, ev := range evs {
		want := uint64(20 - i)
		if ev.Seq != want || ev.FlowID != want {
			t.Errorf("evs[%d] = seq %d flow %d, want %d", i, ev.Seq, ev.FlowID, want)
		}
	}
	if got := r.Snapshot(3); len(got) != 3 || got[0].Seq != 20 {
		t.Errorf("limited snapshot = %+v", got)
	}
}

// NewRing refuses a capacity outside [1, MaxRingEvents] at once: its
// power-of-two rounding never ends on -1, and 1<<62+1 overflows the
// chunk-slot count to 0. Each call runs in a goroutine, so a hang fails
// the test after 1 s instead of stalling it.
func TestNewRingRefusesOutOfRangeCapacity(t *testing.T) {
	for _, capacity := range []int{-1, 0, MaxRingEvents + 1, 1<<62 + 1} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			NewRing(capacity)
		}()
		select {
		case r := <-done:
			if r == nil {
				t.Errorf("NewRing(%d) did not panic", capacity)
			}
		case <-time.After(time.Second):
			t.Fatalf("NewRing(%d) still running after 1 s", capacity)
		}
	}
	if got := NewRing(MaxRingEvents).Cap(); got != MaxRingEvents {
		t.Errorf("NewRing(MaxRingEvents).Cap() = %d", got)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(1024)
	r.add(record{Class: "voice"})
	evs := r.Snapshot(100)
	if len(evs) != 1 || evs[0].Seq != 1 || evs[0].Class != "voice" {
		t.Errorf("snapshot = %+v", evs)
	}
	if len(NewRing(4).Snapshot(0)) != 0 {
		t.Error("empty ring snapshot must be empty")
	}
}

// TestRingRecyclesChunks: once the ring has been around, appends reuse
// the chunks they displace (no allocation) — single appends and runs
// that straddle chunks alike — a Snapshot still returns exactly the
// newest events, and a Snapshot in progress — which may hold a
// displaced chunk — only costs the reuse, not the result.
func TestRingRecyclesChunks(t *testing.T) {
	r := NewRing(256)
	n := uint64(0)
	lap := func() {
		for i := 0; i < 2*256; i++ {
			n++
			r.add(record{FlowID: n})
		}
	}
	runLap := func() {
		for done := 0; done < 2*256; done += 100 {
			first := n + 1
			r.appendRun(100, func(i int, slot *record) {
				*slot = record{FlowID: first + uint64(i)}
			})
			n += 100
		}
	}
	check := func() {
		t.Helper()
		evs := r.Snapshot(0)
		if len(evs) != 256 {
			t.Fatalf("snapshot len = %d, want 256", len(evs))
		}
		for i, ev := range evs {
			if want := n - uint64(i); ev.Seq != want || ev.FlowID != want || ev.Verdict != "admit" {
				t.Fatalf("evs[%d] = %+v, want seq and flow %d", i, ev, want)
			}
		}
	}
	lap()
	lap()
	check()
	if allocs := testing.AllocsPerRun(10, lap); allocs != 0 {
		t.Errorf("%g allocations per 512 appends on a warm ring, want 0", allocs)
	}
	check()
	if allocs := testing.AllocsPerRun(10, runLap); allocs != 0 {
		t.Errorf("%g allocations per 600 appends in runs of 100 on a warm ring, want 0", allocs)
	}
	check()
	r.readers.Add(1) // a Snapshot that never seems to end
	lap()
	runLap()
	r.readers.Add(-1)
	check()
	lap()
	check()
	runLap()
	check()
}

// TestRingConcurrentWritersAllocateNothing: a warm ring turns its
// chunks over under concurrent writers too. Writers crossing into a new
// chunk at once all try to install it; one wins and the others hand
// their chunk back, and none of that may cost the collector a chunk.
// Runs of 1 and of 64 (offset by one ticket, so every run straddles two
// chunks), from 2 and 4 writers. The writers append in phases of one
// lap in all, so none is ever lapped (a lapped writer skips its tickets,
// and the chunk they fell in is let go), and meet between phases on
// atomics, not channels, whose parking allocates now and then.
func TestRingConcurrentWritersAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if size := unsafe.Sizeof(record{}); size != 80 {
		t.Errorf("a ring record is %d bytes, want 80", size)
	}
	for _, writers := range []int{2, 4} {
		for _, run := range []int{1, 64} {
			t.Run(fmt.Sprintf("writers=%d/run=%d", writers, run), func(t *testing.T) {
				r := NewRing(4096)
				r.add(record{})
				perPhase := r.Cap() / writers
				var started, finished atomic.Int64
				var stop atomic.Bool
				defer stop.Store(true)
				for w := 0; w < writers; w++ {
					go func() {
						for p := int64(1); ; p++ {
							for started.Load() < p {
								if stop.Load() {
									return
								}
								runtime.Gosched()
							}
							for n := 0; n < perPhase; n += run {
								r.appendRun(run, func(i int, slot *record) { *slot = record{FlowID: uint64(n + i)} })
							}
							finished.Add(1)
						}
					}()
				}
				phase := func() {
					p := started.Add(1)
					for finished.Load() < p*int64(writers) {
						runtime.Gosched()
					}
				}
				phase() // every chunk slot installed
				phase()
				// The free list holds a chunk per install in flight at once;
				// a long-running ring has seen every writer install together.
				for w := 0; w < writers; w++ {
					r.give(new(eventChunk))
				}
				phase()
				// Best of three windows: the runtime itself allocates now and
				// then, and that can land in any one of them.
				const phases = 8
				var mallocs uint64
				for try := 0; try < 3; try++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := 0; i < phases; i++ {
						phase()
					}
					runtime.ReadMemStats(&after)
					if mallocs = after.Mallocs - before.Mallocs; mallocs == 0 {
						break
					}
				}
				if mallocs != 0 {
					t.Errorf("%d allocations over %d concurrent appends on a warm ring, want 0",
						mallocs, phases*writers*perPhase)
				}
			})
		}
	}
}

// TestRingConcurrent is the -race test for lock-free append/snapshot.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.add(record{FlowID: uint64(w*5000 + i)})
			}
		}(w)
	}
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Snapshot(0) {
				if ev.Verdict != "admit" {
					t.Errorf("torn event: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	snaps.Wait()
	if r.Total() != 20000 {
		t.Errorf("total = %d", r.Total())
	}
	evs := r.Snapshot(0)
	if len(evs) != 64 {
		t.Errorf("final snapshot len = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq >= evs[i-1].Seq {
			t.Errorf("snapshot not newest-first at %d: %d >= %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestRegistrySinkDecisions checks the counter/histogram/ring fan-out of
// each verdict.
func TestRegistrySinkDecisions(t *testing.T) {
	reg := NewRegistry()
	ring := NewRing(16)
	s := NewRegistrySink(reg, ring)
	s.Decision(Decision{FlowID: 1, Class: "voice", Src: 0, Dst: 3, Rate: 32e3,
		Verdict: Admitted, Bottleneck: -1, Latency: 100 * time.Nanosecond})
	s.Decision(Decision{Class: "voice", Src: 0, Dst: 3, Rate: 32e3,
		Verdict: RejectedCapacity, Bottleneck: 7, Latency: 80 * time.Nanosecond})
	s.Decision(Decision{Class: "voice", Src: 0, Dst: 0, Verdict: RejectedNoRoute, Bottleneck: -1})
	s.Decision(Decision{Class: "nope", Verdict: RejectedUnknownClass, Bottleneck: -1})
	s.Decision(Decision{FlowID: 1, Class: "voice", Src: 0, Dst: 3, Verdict: TornDown, Bottleneck: -1})

	if s.Admit.Value() != 1 || s.Teardown.Value() != 1 {
		t.Errorf("admit=%d teardown=%d", s.Admit.Value(), s.Teardown.Value())
	}
	if s.RejectCapacity.Value() != 1 || s.RejectNoRoute.Value() != 1 || s.RejectUnknownClass.Value() != 1 {
		t.Error("reject counters wrong")
	}
	if s.ActiveFlows.Value() != 0 {
		t.Errorf("active = %d, want 0", s.ActiveFlows.Value())
	}
	if s.AdmissionLatency.Count() != 4 { // teardown not observed
		t.Errorf("latency count = %d, want 4", s.AdmissionLatency.Count())
	}
	evs := ring.Snapshot(0)
	if len(evs) != 5 {
		t.Fatalf("events = %d", len(evs))
	}
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "\nubac_events_total 5\n") {
		t.Error("scrape does not count the ring's 5 events")
	}
	if evs[0].Verdict != "teardown" || evs[4].Verdict != "admit" {
		t.Errorf("event order wrong: %+v", evs)
	}
	if evs[3].Reason != "capacity" || evs[3].Bottleneck != 7 {
		t.Errorf("capacity event = %+v", evs[3])
	}

	s.FixedPoint(FixedPoint{Class: "voice", Iterations: 12, Converged: true, Elapsed: time.Millisecond})
	s.FixedPoint(FixedPoint{Class: "voice", Iterations: 4000, Converged: false, Elapsed: time.Millisecond})
	if s.FixedPointIterations.Value() != 4012 {
		t.Errorf("fp iterations = %d", s.FixedPointIterations.Value())
	}
	if s.FixedPointConverged.Value() != 1 || s.FixedPointDiverged.Value() != 1 {
		t.Error("fp run counters wrong")
	}

	s.SimRun(SimRun{Generated: 10, Delivered: 9, Policed: 1, Late: 2})
	if s.SimGenerated.Value() != 10 || s.SimDelivered.Value() != 9 ||
		s.SimPoliced.Value() != 1 || s.SimLate.Value() != 2 {
		t.Error("sim counters wrong")
	}

	s.RouteSelect(RouteSelect{Selector: "heuristic", PairsRouted: 5, PairsTotal: 5,
		Candidates: 42, Safe: true, Elapsed: 2 * time.Millisecond})
	s.RouteSelect(RouteSelect{Selector: "sp", PairsRouted: 3, PairsTotal: 5,
		Candidates: 0, Safe: false, Elapsed: time.Millisecond})
	if s.RouteSelectDuration.Count() != 2 {
		t.Errorf("select duration count = %d, want 2", s.RouteSelectDuration.Count())
	}
	if s.RouteSelectCandidates.Value() != 42 {
		t.Errorf("select candidates = %d, want 42", s.RouteSelectCandidates.Value())
	}
}
