package workload

import (
	"math"
	"testing"
	"testing/quick"

	"ubac/internal/admission"
	"ubac/internal/delay"
	"ubac/internal/routing"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

func TestNewGeneratorValidation(t *testing.T) {
	pairs := [][2]int{{0, 1}}
	cases := []struct {
		rate, hold float64
		pairs      [][2]int
	}{
		{0, 1, pairs},
		{-1, 1, pairs},
		{math.NaN(), 1, pairs},
		{1, 0, pairs},
		{1, math.Inf(1), pairs},
		{1, 1, nil},
		{1, 1, [][2]int{{2, 2}}},
	}
	for i, c := range cases {
		if _, err := NewGenerator(c.rate, c.hold, c.pairs, 1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGenerateStatistics(t *testing.T) {
	g, err := NewGenerator(100, 0.5, [][2]int{{0, 1}, {1, 0}, {0, 2}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.OfferedLoad() != 50 {
		t.Errorf("offered load = %g, want 50 Erlangs", g.OfferedLoad())
	}
	const horizon = 100.0
	calls := g.Generate(horizon)
	// Poisson(100/s · 100 s): expect ~10000 ± a few hundred.
	if len(calls) < 9000 || len(calls) > 11000 {
		t.Fatalf("generated %d calls, want ~10000", len(calls))
	}
	var sumHold float64
	prev := 0.0
	for _, c := range calls {
		if c.Arrive < prev {
			t.Fatal("calls not sorted by arrival")
		}
		prev = c.Arrive
		if c.Arrive >= horizon || c.Holding <= 0 {
			t.Fatalf("bad call %+v", c)
		}
		if c.Src == c.Dst {
			t.Fatalf("self call %+v", c)
		}
		sumHold += c.Holding
	}
	meanHold := sumHold / float64(len(calls))
	if math.Abs(meanHold-0.5) > 0.05 {
		t.Errorf("mean holding = %g, want ~0.5", meanHold)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	mk := func() []Call {
		g, err := NewGenerator(10, 1, [][2]int{{0, 1}}, 99)
		if err != nil {
			t.Fatal(err)
		}
		return g.Generate(10)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs", i)
		}
	}
}

func TestGenerateEmptyHorizon(t *testing.T) {
	g, err := NewGenerator(10, 1, [][2]int{{0, 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if calls := g.Generate(0); calls != nil {
		t.Error("non-nil calls for zero horizon")
	}
}

func TestScheduleOrdering(t *testing.T) {
	calls := []Call{
		{Arrive: 1, Holding: 2, Src: 0, Dst: 1}, // departs at 3
		{Arrive: 3, Holding: 1, Src: 1, Dst: 0}, // arrives exactly at 3
		{Arrive: 0.5, Holding: 10, Src: 0, Dst: 1},
	}
	evs := Schedule(calls)
	if len(evs) != 6 {
		t.Fatalf("events = %d", len(evs))
	}
	prev := 0.0
	for _, e := range evs {
		if e.At < prev {
			t.Fatal("events out of order")
		}
		prev = e.At
	}
	// At t=3 the departure of call 0 must precede the arrival of call 1.
	for i, e := range evs {
		if e.At == 3 && e.Start {
			if i == 0 || evs[i-1].At != 3 || evs[i-1].Start {
				t.Error("departure did not precede same-time arrival")
			}
		}
	}
}

func TestErlangBKnownValues(t *testing.T) {
	// Classic switchboard numbers: B(a=10 E, c=10) ≈ 0.2146,
	// B(a=10, c=15) ≈ 0.0365, B(a=1, c=1) = 0.5.
	cases := []struct {
		a    float64
		c    int
		want float64
	}{
		{10, 10, 0.2146},
		{10, 15, 0.0365},
		{1, 1, 0.5},
		{0, 5, 0},
		{5, 0, 1},
	}
	for _, tc := range cases {
		got, err := ErlangB(tc.a, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 5e-4 {
			t.Errorf("ErlangB(%g, %d) = %.4f, want %.4f", tc.a, tc.c, got, tc.want)
		}
	}
}

func TestErlangBValidation(t *testing.T) {
	if _, err := ErlangB(-1, 5); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := ErlangB(math.NaN(), 5); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := ErlangB(1, -1); err == nil {
		t.Error("negative circuits accepted")
	}
}

func TestErlangBCapacityRoundTrip(t *testing.T) {
	c, err := ErlangBCapacity(10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Known: 10 Erlangs at 1% blocking needs 18 circuits.
	if c != 18 {
		t.Errorf("capacity = %d, want 18", c)
	}
	bAt, _ := ErlangB(10, c)
	bBelow, _ := ErlangB(10, c-1)
	if bAt > 0.01 || bBelow <= 0.01 {
		t.Errorf("capacity not minimal: B(%d)=%g B(%d)=%g", c, bAt, c-1, bBelow)
	}
	if _, err := ErlangBCapacity(10, 0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := ErlangBCapacity(-1, 0.01); err == nil {
		t.Error("negative load accepted")
	}
}

// Property: Erlang-B is increasing in offered load and decreasing in
// circuit count.
func TestErlangBMonotoneProperty(t *testing.T) {
	f := func(loadCentiE uint16, circuits uint8) bool {
		a := float64(loadCentiE)/100 + 0.01
		c := int(circuits%64) + 1
		b1, err := ErlangB(a, c)
		if err != nil {
			return false
		}
		b2, err := ErlangB(a*1.5, c)
		if err != nil {
			return false
		}
		b3, err := ErlangB(a, c+1)
		if err != nil {
			return false
		}
		return b2 >= b1-1e-12 && b3 <= b1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// ctrlAdmitter adapts admission.Controller to TierAdmitter, admitting
// every call as one class.
type ctrlAdmitter struct {
	ctrl  *admission.Controller
	class string
}

func (a ctrlAdmitter) TryAdmitTier(_, _ string, src, dst int) (uint64, bool) {
	id, err := a.ctrl.Admit(a.class, src, dst)
	return uint64(id), err == nil
}

func (a ctrlAdmitter) Release(h uint64) {
	_ = a.ctrl.Teardown(admission.FlowID(h))
}

// Replaying a Poisson load against the real admission controller on a
// single bottleneck path must reproduce Erlang-B blocking to within
// simulation noise — the end-to-end check that the utilization-test
// controller behaves like a c-circuit loss system.
func TestReplayMatchesErlangB(t *testing.T) {
	net, err := topology.Line(3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(net)
	voice := traffic.Voice()
	const alpha = 0.01 // capacity: 0.01·100e6/32e3 = 31 circuits
	set, _, err := routing.SP{}.Select(m, routing.Request{Class: voice, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := admission.NewController(net,
		[]admission.ClassConfig{{Class: voice, Alpha: alpha, Routes: set}},
		admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	circuits, err := ctrl.Headroom("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if circuits != 31 {
		t.Fatalf("circuits = %d, want 31", circuits)
	}

	offered := 28.0 // Erlangs, close to capacity so blocking is visible
	g, err := NewGenerator(offered/2.0, 2.0, [][2]int{{0, 2}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	calls := g.Generate(4000)
	st, _ := ReplayTiered(Schedule(calls), calls, ctrlAdmitter{ctrl: ctrl, class: "voice"})
	if st.Offered != len(calls) || st.Admitted+st.Blocked != st.Offered {
		t.Fatalf("accounting broken: %+v", st)
	}
	want, err := ErlangB(offered, circuits)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Blocking()
	if math.Abs(got-want) > 0.02 {
		t.Errorf("measured blocking %.4f vs Erlang-B %.4f", got, want)
	}
	// Controller must be fully drained.
	if ctrl.Stats().Active != 0 {
		t.Errorf("replay leaked %d flows", ctrl.Stats().Active)
	}
}

func BenchmarkGenerate(b *testing.B) {
	g, err := NewGenerator(1000, 1, [][2]int{{0, 1}, {1, 2}}, 5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		g.Generate(10)
	}
}

func BenchmarkErlangB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ErlangB(500, 600); err != nil {
			b.Fatal(err)
		}
	}
}
