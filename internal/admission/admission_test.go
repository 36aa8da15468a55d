package admission

import (
	"math"
	"sync"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/routing"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// testController builds a controller over a 3-router line with SP routes
// for voice at the given alpha.
func testController(t testing.TB, alpha float64) (*Controller, *topology.Network) {
	t.Helper()
	net, err := topology.Line(3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(net)
	set, _, err := routing.SP{}.Select(m, routing.Request{Class: traffic.Voice(), Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(net, []ClassConfig{{Class: traffic.Voice(), Alpha: alpha, Routes: set}}, AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	return c, net
}

func TestNewControllerValidation(t *testing.T) {
	net, err := topology.Line(3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	other, err := topology.Line(4, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	set := routes.NewSet(net)
	foreign := routes.NewSet(other)
	cases := []struct {
		net     *topology.Network
		classes []ClassConfig
	}{
		{nil, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: set}}},
		{net, nil},
		{net, []ClassConfig{{Class: traffic.Class{}, Alpha: 0.3, Routes: set}}},
		{net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0, Routes: set}}},
		{net, []ClassConfig{{Class: traffic.Voice(), Alpha: 1.5, Routes: set}}},
		{net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: nil}}},
		{net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: foreign}}},
		{net, []ClassConfig{
			{Class: traffic.Voice(), Alpha: 0.3, Routes: set},
			{Class: traffic.Voice(), Alpha: 0.2, Routes: set},
		}},
	}
	for i, tc := range cases {
		if _, err := NewController(tc.net, tc.classes, AtomicLedger); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAdmitAndTeardown(t *testing.T) {
	c, _ := testController(t, 0.3)
	id, err := c.Admit("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Admitted != 1 || st.Active != 1 || st.MaxActive != 1 {
		t.Errorf("stats after admit: %+v", st)
	}
	// Utilization on the route's first server: one 32 kb/s flow over
	// 100 Mb/s.
	u, err := c.Utilization("voice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-32e3/100e6) > 1e-12 {
		t.Errorf("utilization = %g, want %g", u, 32e3/100e6)
	}
	if err := c.Teardown(id); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Active != 0 || st.TornDown != 1 || st.MaxActive != 1 {
		t.Errorf("stats after teardown: %+v", st)
	}
	u, _ = c.Utilization("voice", 0)
	if u != 0 {
		t.Errorf("utilization after teardown = %g", u)
	}
	if err := c.Teardown(id); err != ErrUnknownFlow {
		t.Errorf("double teardown: %v", err)
	}
}

func TestAdmitErrors(t *testing.T) {
	c, _ := testController(t, 0.3)
	if _, err := c.Admit("nope", 0, 2); err != ErrUnknownClass {
		t.Errorf("unknown class: %v", err)
	}
	if _, err := c.Admit("voice", 0, 0); err != ErrNoRoute {
		t.Errorf("self pair: %v", err)
	}
	if _, err := c.Admit("voice", -1, 2); err != ErrNoRoute {
		t.Errorf("bad src: %v", err)
	}
	if _, err := c.Admit("voice", 0, 99); err != ErrNoRoute {
		t.Errorf("bad dst: %v", err)
	}
	st := c.Stats()
	if st.NoRoute != 3 {
		t.Errorf("noRoute = %d, want 3", st.NoRoute)
	}
}

// TestPairValidationAlignment pins the (src, dst) validation contract
// across every pair-taking query: Admit, RouteDelay and Headroom must
// agree that out-of-range routers, self-pairs and unrouted pairs are
// all ErrNoRoute (the seed rejected self-pairs only in Admit).
func TestPairValidationAlignment(t *testing.T) {
	c, _ := testController(t, 0.3)
	if err := c.SetDelayBounds("voice", make([]float64, c.net.NumServers())); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		src, dst int
	}{
		{"self pair", 0, 0},
		{"self pair nonzero", 2, 2},
		{"negative src", -1, 2},
		{"negative dst", 0, -1},
		{"src out of range", 99, 2},
		{"dst out of range", 0, 99},
		{"both out of range", 99, 99},
	}
	for _, tc := range cases {
		if _, err := c.Admit("voice", tc.src, tc.dst); err != ErrNoRoute {
			t.Errorf("%s: Admit = %v, want ErrNoRoute", tc.name, err)
		}
		if _, err := c.RouteDelay("voice", tc.src, tc.dst); err != ErrNoRoute {
			t.Errorf("%s: RouteDelay = %v, want ErrNoRoute", tc.name, err)
		}
		if _, err := c.Headroom("voice", tc.src, tc.dst); err != ErrNoRoute {
			t.Errorf("%s: Headroom = %v, want ErrNoRoute", tc.name, err)
		}
	}
	// A routed pair passes all three with the same configuration.
	if _, err := c.RouteDelay("voice", 0, 2); err != nil {
		t.Errorf("routed pair RouteDelay: %v", err)
	}
	if _, err := c.Headroom("voice", 0, 2); err != nil {
		t.Errorf("routed pair Headroom: %v", err)
	}
	if id, err := c.Admit("voice", 0, 2); err != nil {
		t.Errorf("routed pair Admit: %v", err)
	} else if err := c.Teardown(id); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	c, _ := testController(t, 0.3)
	// Reserved per server: 0.3·100 Mb/s = 30 Mb/s; voice is 32 kb/s;
	// capacity = floor(30e6/32e3) = 937 flows on the shared path.
	want := int(math.Floor(0.3 * 100e6 / 32e3))
	if hr, err := c.Headroom("voice", 0, 2); err != nil || hr != want {
		t.Errorf("headroom = %d (%v), want %d", hr, err, want)
	}
	var ids []FlowID
	for {
		id, err := c.Admit("voice", 0, 2)
		if err == ErrCapacity {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if len(ids) != want {
		t.Errorf("admitted %d flows, want %d", len(ids), want)
	}
	st := c.Stats()
	if st.Rejected == 0 {
		t.Error("no rejection recorded")
	}
	// Rejected admission must not leak reservations: tear down all and
	// expect zero utilization everywhere.
	for _, id := range ids {
		if err := c.Teardown(id); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 4; s++ {
		if u, _ := c.Utilization("voice", s); u != 0 {
			t.Errorf("leaked %g on server %d", u, s)
		}
	}
}

func TestRollbackOnPartialFailure(t *testing.T) {
	// Two overlapping routes: 0->2 uses both servers, 0->1 only the
	// first. Exhaust 1->2 via 0->2 admissions is impossible (both fill
	// together), so instead fill 0->1 then check 0->2 rolls back cleanly.
	c, net := testController(t, 0.3)
	for {
		if _, err := c.Admit("voice", 1, 2); err != nil {
			break
		}
	}
	// Server 1->2 is now full; admitting 0->2 must fail and leave server
	// 0->1 untouched.
	s01, _ := net.ServerFor(0, 1)
	before, _ := c.Utilization("voice", s01)
	if _, err := c.Admit("voice", 0, 2); err != ErrCapacity {
		t.Fatalf("expected ErrCapacity, got %v", err)
	}
	after, _ := c.Utilization("voice", s01)
	if before != after {
		t.Errorf("rollback leaked: %g -> %g", before, after)
	}
}

func TestConcurrentChurn(t *testing.T) {
	c, _ := testController(t, 0.3)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pairs := [][2]int{{0, 2}, {2, 0}, {0, 1}, {1, 2}}
			var held []FlowID
			for i := 0; i < perWorker; i++ {
				p := pairs[(i+w)%len(pairs)]
				if id, err := c.Admit("voice", p[0], p[1]); err == nil {
					held = append(held, id)
				}
				if len(held) > 4 {
					if err := c.Teardown(held[0]); err != nil {
						t.Errorf("teardown: %v", err)
						return
					}
					held = held[1:]
				}
			}
			for _, id := range held {
				if err := c.Teardown(id); err != nil {
					t.Errorf("final teardown: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Active != 0 {
		t.Errorf("%d flows leaked", st.Active)
	}
	if st.Admitted != st.TornDown {
		t.Errorf("admitted %d != torn down %d", st.Admitted, st.TornDown)
	}
	// All reservations returned.
	for s := 0; s < 4; s++ {
		if u, _ := c.Utilization("voice", s); u != 0 {
			t.Errorf("residual utilization %g on server %d", u, s)
		}
	}
}

// The admitted population on any server never exceeds α·C/ρ — the
// invariant Theorem 2 relies on (Equation (8)).
func TestUtilizationNeverExceedsAlpha(t *testing.T) {
	c, net := testController(t, 0.3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				c.Admit("voice", 0, 2) //nolint:errcheck // rejection expected
			}
		}()
	}
	wg.Wait()
	for s := 0; s < net.NumServers(); s++ {
		u, err := c.Utilization("voice", s)
		if err != nil {
			t.Fatal(err)
		}
		if u > 0.3+1e-9 {
			t.Errorf("server %d exceeded alpha: %g", s, u)
		}
	}
}

func TestUtilizationErrors(t *testing.T) {
	c, _ := testController(t, 0.3)
	if _, err := c.Utilization("nope", 0); err != ErrUnknownClass {
		t.Errorf("unknown class: %v", err)
	}
	if _, err := c.Utilization("voice", -1); err == nil {
		t.Error("bad server accepted")
	}
	if _, err := c.Headroom("nope", 0, 1); err != ErrUnknownClass {
		t.Errorf("headroom class: %v", err)
	}
	if _, err := c.Headroom("voice", 0, 99); err != ErrNoRoute {
		t.Errorf("headroom route: %v", err)
	}
	if got := c.Classes(); len(got) != 1 || got[0] != "voice" {
		t.Errorf("classes = %v", got)
	}
}

func benchController(b *testing.B) *Controller {
	b.Helper()
	net := topology.MCI()
	m := delay.NewModel(net)
	set, _, err := routing.SP{}.Select(m, routing.Request{Class: traffic.Voice(), Alpha: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewController(net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: set}}, AtomicLedger)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkAdmitTeardownAtomic(b *testing.B) {
	c := benchController(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := c.Admit("voice", i%19, (i+7)%19)
		if err == nil {
			if err := c.Teardown(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAdmitParallelAtomic(b *testing.B) {
	c := benchController(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			id, err := c.Admit("voice", i%19, (i+7)%19)
			if err == nil {
				if err := c.Teardown(id); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func TestMultiClassIsolationCentral(t *testing.T) {
	net, err := topology.Line(3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(net)
	voice := traffic.Voice()
	video := traffic.Class{
		Name:     "video",
		Bucket:   traffic.LeakyBucket{Burst: 15e3, Rate: 1.5e6},
		Deadline: 0.4,
		Priority: 1,
	}
	vset, _, err := routing.SP{}.Select(m, routing.Request{Class: voice, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	dset, _, err := routing.SP{}.Select(m, routing.Request{Class: video, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(net, []ClassConfig{
		{Class: voice, Alpha: 0.1, Routes: vset},
		{Class: video, Alpha: 0.3, Routes: dset},
	}, AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Classes(); len(got) != 2 {
		t.Fatalf("classes = %v", got)
	}
	// Exhaust video capacity; voice must be unaffected.
	videoAdmitted := 0
	for {
		if _, err := c.Admit("video", 0, 2); err != nil {
			break
		}
		videoAdmitted++
	}
	if want := int(math.Floor(0.3 * 100e6 / 1.5e6)); videoAdmitted != want {
		t.Errorf("video admitted %d, want %d", videoAdmitted, want)
	}
	if _, err := c.Admit("voice", 0, 2); err != nil {
		t.Errorf("voice blocked by video exhaustion: %v", err)
	}
	if u, _ := c.Utilization("video", 0); math.Abs(u-0.3) > 0.015 {
		t.Errorf("video utilization = %g, want ~0.3", u)
	}
}
