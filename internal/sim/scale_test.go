package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ubac/internal/admission"
	"ubac/internal/delay"
	"ubac/internal/routing"
	"ubac/internal/topology"
	"ubac/internal/traffic"
	"ubac/internal/workload"
)

// mustScaleSpec parses a spec or fails the test.
func mustScaleSpec(t *testing.T, topo, arrival string, seed int64, lifetimes uint64) *ScaleSpec {
	t.Helper()
	spec, err := ParseScaleSpec(topo, arrival, seed, lifetimes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScaleRunThroughController drives flow lifetimes through the real
// admission controller on nsfnet and checks the run's core invariants:
// every arrival is accounted for, every admitted flow is torn down, the
// observed delays stay within the verified bounds, and memory (slots,
// packets) tracks peak concurrency rather than total lifetimes.
func TestScaleRunThroughController(t *testing.T) {
	const lifetimes = 20000
	spec := mustScaleSpec(t, "nsfnet", "poisson:rate=400,holding=5", 11, lifetimes)
	rep, err := RunScaleSpec(spec, nil, 0.4, nil, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lifetimes != lifetimes {
		t.Fatalf("completed %d lifetimes, want %d", rep.Lifetimes, lifetimes)
	}
	if rep.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if rep.Admitted+rep.Rejected != rep.Lifetimes {
		t.Fatalf("admitted %d + rejected %d != %d lifetimes", rep.Admitted, rep.Rejected, rep.Lifetimes)
	}
	if rep.Teardowns != rep.Admitted {
		t.Fatalf("%d teardowns for %d admits: flows leaked", rep.Teardowns, rep.Admitted)
	}
	if rep.Bounds == nil || !rep.Bounds.AllWithin {
		t.Fatalf("bound property violated: %s", rep.Bounds.Verdict())
	}
	var pkts, delivered uint64
	for _, pc := range rep.PerClass {
		pkts += pc.Packets
		delivered += pc.Delivered
	}
	if pkts == 0 || delivered != pkts {
		t.Fatalf("generated %d packets, delivered %d; the run must drain fully", pkts, delivered)
	}
	// Memory bound: the slot table and packet pool peak with concurrency,
	// not with lifetimes. MaxActive bounds the slots still waiting on
	// in-flight packets only loosely; a small multiple is the witness.
	if rep.PeakSlots > rep.MaxActive+64 {
		t.Fatalf("peak slots %d outruns peak active flows %d: slot reuse broken", rep.PeakSlots, rep.MaxActive)
	}
	// Steady-state concurrency here is rate*holding = 2000 flows; total
	// lifetimes is 10x that.
	if uint64(rep.PeakSlots) >= lifetimes/4 {
		t.Fatalf("peak slots %d grows with lifetimes %d", rep.PeakSlots, lifetimes)
	}
	if rep.PeakPackets > 64*1024 {
		t.Fatalf("peak live packets %d unbounded", rep.PeakPackets)
	}
}

// TestScaleOverloadRejects pins the overload path: offered load far
// beyond alpha*C must produce capacity rejections while the admitted
// flows still meet their bounds — admission control working as the
// paper claims.
func TestScaleOverloadRejects(t *testing.T) {
	spec := mustScaleSpec(t, "line:4", "poisson:rate=2000,holding=60", 3, 30000)
	rep, err := RunScaleSpec(spec, nil, 0.05, nil, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var capRejects uint64
	for _, pc := range rep.PerClass {
		capRejects += pc.RejectedCapacity
	}
	if capRejects == 0 {
		t.Fatalf("overload run produced no capacity rejections: %+v", rep)
	}
	if rep.Admitted == 0 {
		t.Fatal("overload run admitted nothing")
	}
	if !rep.Bounds.AllWithin {
		t.Fatalf("admitted flows violated bounds under overload: %s", rep.Bounds.Verdict())
	}
}

// TestScaleDeterminism is the reproducibility property: the same seed
// yields a byte-identical marshaled report, and a different seed
// diverges.
func TestScaleDeterminism(t *testing.T) {
	run := func(seed int64) []byte {
		spec := mustScaleSpec(t, "metro:5", "mmpp:high=300,low=60,on=2,off=3,holding=8", seed, 8000)
		rep, err := RunScaleSpec(spec, nil, 0.4, nil, ScaleConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(42), run(42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed reports differ:\n%s\n%s", a, b)
	}
	if c := run(43); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestScaleMultiClass runs a two-class mix (voice above a second
// real-time class) and checks both classes are exercised and both stay
// within their bounds.
func TestScaleMultiClass(t *testing.T) {
	video := traffic.Class{
		Name:     "video",
		Bucket:   traffic.LeakyBucket{Burst: 8000, Rate: 1e6},
		Deadline: 0.5,
		Priority: 1,
	}
	classes := []traffic.Class{traffic.Voice(), video}
	spec := mustScaleSpec(t, "nsfnet", "poisson:rate=300,holding=4", 9, 10000)
	rep, err := RunScaleSpec(spec, classes, 0.3, nil, ScaleConfig{ClassWeights: []float64{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerClass) != 2 {
		t.Fatalf("got %d class reports, want 2", len(rep.PerClass))
	}
	for _, pc := range rep.PerClass {
		if pc.Admitted == 0 || pc.Delivered == 0 {
			t.Fatalf("class %s not exercised: %+v", pc.Class, pc)
		}
	}
	if rep.PerClass[0].Admitted <= rep.PerClass[1].Admitted {
		t.Fatalf("3:1 mix did not favor %s: %d vs %d",
			rep.PerClass[0].Class, rep.PerClass[0].Admitted, rep.PerClass[1].Admitted)
	}
	if !rep.Bounds.AllWithin {
		t.Fatalf("bounds violated: %s", rep.Bounds.Verdict())
	}
}

// TestScaleGoldenNSFNet pins a full machine-readable run report for a
// fixed topology, arrival process, and seed. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/sim -run TestScaleGoldenNSFNet
// after an intentional behavior change, and review the diff like code.
func TestScaleGoldenNSFNet(t *testing.T) {
	spec := mustScaleSpec(t, "nsfnet", "poisson:rate=200,holding=10", 7, 10000)
	rep, err := RunScaleSpec(spec, nil, 0.4, nil, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "golden_scale_nsfnet.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report drifted from %s (regenerate with UPDATE_GOLDEN=1 if intended)\n got: %s\nwant: %s",
			golden, got, want)
	}
}

// TestScaleSoak is the CI property gate at soak scale: 10^5 flow
// lifetimes on the backbone preset, bound property enforced. The full
// 10^6-lifetime run lives behind UBAC_SOAK_LIFETIMES to keep ordinary
// test runs fast; CI's sim-soak job sets it.
func TestScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run skipped in -short")
	}
	lifetimes := uint64(100_000)
	if v := os.Getenv("UBAC_SOAK_LIFETIMES"); v != "" {
		var n uint64
		for _, ch := range v {
			if ch < '0' || ch > '9' {
				t.Fatalf("bad UBAC_SOAK_LIFETIMES %q", v)
			}
			n = n*10 + uint64(ch-'0')
		}
		lifetimes = n
	}
	spec := mustScaleSpec(t, "backbone:21", "poisson:rate=3000,holding=6", 21, lifetimes)
	rep, err := RunScaleSpec(spec, nil, 0.3, nil, ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lifetimes != lifetimes {
		t.Fatalf("completed %d lifetimes, want %d", rep.Lifetimes, lifetimes)
	}
	if rep.Teardowns != rep.Admitted {
		t.Fatalf("%d teardowns for %d admits", rep.Teardowns, rep.Admitted)
	}
	if !rep.Bounds.AllWithin {
		t.Fatalf("bound property violated at soak scale: %s", rep.Bounds.Verdict())
	}
	t.Logf("lifetimes=%d admitted=%d rejected=%d peakSlots=%d peakPackets=%d maxQ=%g",
		rep.Lifetimes, rep.Admitted, rep.Rejected, rep.PeakSlots, rep.PeakPackets, rep.ObservedMax())
}

// callList is a workload.Source over a fixed call sequence.
type callList []workload.Call

func (l *callList) Next() (workload.Call, bool) {
	if len(*l) == 0 {
		return workload.Call{}, false
	}
	c := (*l)[0]
	*l = (*l)[1:]
	return c, true
}

func (l *callList) OfferedLoad() float64 { return 0 }

// voiceController builds a controller for the voice class over
// shortest-path routes on net, returning it with its class configs.
func voiceController(t *testing.T, net *topology.Network) (*admission.Controller, []admission.ClassConfig) {
	t.Helper()
	set, _, err := routing.SP{}.Select(delay.NewModel(net), routing.Request{Class: traffic.Voice(), Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	ccs := []admission.ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: set}}
	ctrl, err := admission.NewController(net, ccs, admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, ccs
}

func TestNewScaleValidation(t *testing.T) {
	ctrl, ccs := voiceController(t, lineNet(t, 3))
	if _, err := NewScale(ctrl, ccs, &callList{}, ScaleConfig{Scheduler: "alien"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	spec := mustScaleSpec(t, "line:3", "poisson:rate=10", 1, 10)
	if _, err := RunScaleSpec(spec, nil, 0.3, nil, ScaleConfig{Scheduler: "alien"}); err == nil {
		t.Error("unknown scheduler accepted by RunScaleSpec")
	}
}

// TestSimulatorsForwardIdentically feeds both simulators the same two
// flows, whose routes share one server, with the same emission times:
// greedy one-packet bursts at CBR pace in Sim, admitted lifetimes
// capped at the same packet count in ScaleSim. Forwarding is one
// engine, so every delay statistic must agree to the bit.
func TestSimulatorsForwardIdentically(t *testing.T) {
	const pkts = 5
	net := lineNet(t, 3)
	ctrl, ccs := voiceController(t, net)
	voice := traffic.Voice()
	period := voice.Bucket.Burst / voice.Bucket.Rate
	// The second flow starts half a transmission later, so its packet
	// holds the shared last hop when the first flow's packet reaches it.
	a0 := 0.001
	b0 := a0 + 0.5*voice.Bucket.Burst/net.ServerCapacity(0)
	pairs := [][2]int{{0, 2}, {1, 2}}
	starts := []float64{a0, b0}

	s, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	calls := callList{}
	for i, p := range pairs {
		var route []int
		for r := 0; r < ccs[0].Routes.Len(); r++ {
			if rt := ccs[0].Routes.Route(r); rt.Src == p[0] && rt.Dst == p[1] {
				route = rt.Servers
			}
		}
		if _, err := s.AddFlow(FlowSpec{
			Route: route, Size: voice.Bucket.Burst, Rate: voice.Bucket.Rate,
			Burst: voice.Bucket.Burst, Pattern: GreedyBurst, Offset: starts[i],
		}); err != nil {
			t.Fatal(err)
		}
		calls = append(calls, workload.Call{Arrive: starts[i], Holding: 10, Src: p[0], Dst: p[1]})
	}
	// Emits run while <= duration: this admits exactly pkts per flow.
	res, err := s.Run(b0 + (pkts-0.5)*period)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := NewScale(ctrl, ccs, &calls, ScaleConfig{PacketsPerFlow: pkts})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scale.Run()
	if err != nil {
		t.Fatal(err)
	}

	got, want := rep.PerClass[0], res.PerClass[0]
	if want.Delivered != 2*pkts || got.Delivered != want.Delivered {
		t.Fatalf("delivered %d (scale) vs %d (sim), want %d", got.Delivered, want.Delivered, 2*pkts)
	}
	if want.MaxQueueing == 0 {
		t.Fatal("no queueing at the shared server: the test shape is wrong")
	}
	if got.MaxQueueing != want.MaxQueueing || got.MeanQueueing != want.MeanQueueing() || got.MaxLatency != want.MaxLatency {
		t.Errorf("scale max/mean queueing, max latency = %g/%g/%g; sim = %g/%g/%g",
			got.MaxQueueing, got.MeanQueueing, got.MaxLatency,
			want.MaxQueueing, want.MeanQueueing(), want.MaxLatency)
	}
	var backlog int
	var hop float64
	for srv := range res.MaxBacklog {
		backlog = max(backlog, res.MaxBacklog[srv])
		hop = max(hop, res.MaxHopDelay[srv])
	}
	if rep.MaxBacklog != backlog || rep.MaxHopDelay != hop {
		t.Errorf("scale backlog/hop delay = %d/%g; sim = %d/%g", rep.MaxBacklog, rep.MaxHopDelay, backlog, hop)
	}
}
