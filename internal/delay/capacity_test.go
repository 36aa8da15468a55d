package delay_test

import (
	"math"
	"strings"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/sim"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// fastSlowChain is r0 –1 Gb/s– r1 –100 Mb/s– r2: the server r1->r2 is
// fed by a link ten times faster than itself.
func fastSlowChain(t *testing.T) (*topology.Network, routes.Route) {
	t.Helper()
	b := topology.NewBuilder("fast-slow")
	r0 := b.Router("r0", topology.Edge)
	r1 := b.Router("r1", topology.Edge)
	r2 := b.Router("r2", topology.Edge)
	b.Link(r0, r1, 1e9).Link(r1, r2, 100e6)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := routes.FromRouterPath(net, "voice", []int{r0, r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	return net, r
}

// A transit input link is capped at the capacity of the server feeding
// it. 100 voice bursts cross the 1 Gb/s hop without queueing and reach
// r1->r2 at 1 Gb/s, so they queue there; capping that input at the
// 100 Mb/s server's own rate would say they never do.
func TestFlowAwareCapsTransitLinkAtFeedingCapacity(t *testing.T) {
	net, r := fastSlowChain(t)
	voice := traffic.Voice().Bucket
	const n = 100
	res, err := delay.NewModel(net).SolveFlowAware([]delay.Entry{{Bucket: voice, Route: r, Count: n}})
	if err != nil || !res.Converged {
		t.Fatalf("solve: %v", err)
	}
	slow := r.Servers[1]
	// One input link: A = nT, B = nρ, cap 1 Gb/s, so the backlog peaks
	// at its breakpoint I = A/(1e9 − B): (A + B·I − C·I)/C.
	A, B, C := n*voice.Burst, n*voice.Rate, 100e6
	I := A / (1e9 - B)
	want := (A + B*I - C*I) / C
	if got := res.D[slow]; math.Abs(got-want) > 1e-12*want {
		t.Errorf("bound at %s = %.9g s, want %.9g", net.ServerName(slow), got, want)
	}
	if res.D[r.Servers[0]] != 0 {
		t.Errorf("bound at the 1 Gb/s hop = %g, want 0", res.D[r.Servers[0]])
	}

	// The static DES, every flow bursting greedily at 1 ms.
	s, err := sim.New(net, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.AddFlow(sim.FlowSpec{Route: r.Servers, Size: voice.Burst, Rate: voice.Rate,
			Burst: voice.Burst, Pattern: sim.GreedyBurst, Offset: 1e-3}); err != nil {
			t.Fatal(err)
		}
	}
	run, err := s.Run(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if seen := run.MaxHopDelay[slow]; seen > res.D[slow] || seen < 0.9*want {
		t.Errorf("DES queueing at %s = %.9g s, bound %.9g", net.ServerName(slow), seen, res.D[slow])
	}
	t.Logf("r1->r2: bound %.1f µs, DES %.1f µs", res.D[slow]*1e6, run.MaxHopDelay[slow]*1e6)
}

// The configuration-time analysis caps every input link at the server's
// own C, so a server fed by a faster link is refused by every solve,
// with an error naming both links.
func TestConfigurationRefusesFasterInputLink(t *testing.T) {
	net, r := fastSlowChain(t)
	set := routes.NewSet(net)
	if err := set.Add(r); err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(net)
	in := delay.ClassInput{Class: traffic.Voice(), Alpha: 0.30, Routes: set}
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a server fed by a faster link", what)
		}
		if msg := err.Error(); !strings.Contains(msg, "r0->r1") || !strings.Contains(msg, "r1->r2") {
			t.Errorf("%s: error %q does not name both links", what, msg)
		}
	}
	_, err := m.Verify([]delay.ClassInput{in})
	check("Verify", err)
	_, err = m.SolveTwoClass(in)
	check("SolveTwoClass", err)
	_, err = m.SolveTwoClassScratch(in, nil, nil, &delay.SolveScratch{})
	check("SolveTwoClassScratch", err)
	_, err = m.SolveMultiClass([]delay.ClassInput{in})
	check("SolveMultiClass", err)

	// The same chain at one capacity verifies.
	uni, err := topology.Line(3, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	uset := routes.NewSet(uni)
	ur, err := routes.FromRouterPath(uni, "voice", []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := uset.Add(ur); err != nil {
		t.Fatal(err)
	}
	if _, err := delay.NewModel(uni).Verify([]delay.ClassInput{{Class: traffic.Voice(), Alpha: 0.30, Routes: uset}}); err != nil {
		t.Errorf("one-capacity chain refused: %v", err)
	}
}
