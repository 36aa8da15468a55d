package signaling

import (
	"errors"
	"math"
	"sync"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/routing"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

func plane(t testing.TB, alpha float64) (*Network, *topology.Network) {
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
	n, err := Start(net, []ClassConfig{{Class: traffic.Voice(), Alpha: alpha, Routes: set}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, net
}

func TestStartValidation(t *testing.T) {
	net, err := topology.Line(3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	other, err := topology.Line(4, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	set := routes.NewSet(net)
	cases := []struct {
		net     *topology.Network
		classes []ClassConfig
	}{
		{nil, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: set}}},
		{net, nil},
		{net, []ClassConfig{{Class: traffic.Class{}, Alpha: 0.3, Routes: set}}},
		{net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0, Routes: set}}},
		{net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: nil}}},
		{net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: routes.NewSet(other)}}},
		{net, []ClassConfig{
			{Class: traffic.Voice(), Alpha: 0.3, Routes: set},
			{Class: traffic.Voice(), Alpha: 0.2, Routes: set},
		}},
	}
	for i, tc := range cases {
		if _, err := Start(tc.net, tc.classes); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEstablishTerminate(t *testing.T) {
	n, net := plane(t, 0.3)
	id, err := n.Establish("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n.Active() != 1 {
		t.Errorf("active = %d", n.Active())
	}
	s01, _ := net.ServerFor(0, 1)
	u, err := n.Utilization("voice", s01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-32e3/100e6) > 1e-12 {
		t.Errorf("utilization = %g", u)
	}
	if err := n.Terminate(id); err != nil {
		t.Fatal(err)
	}
	if n.Active() != 0 {
		t.Errorf("active after terminate = %d", n.Active())
	}
	if err := n.Terminate(id); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("double terminate: %v", err)
	}
	if u, _ := n.Utilization("voice", s01); u != 0 {
		t.Errorf("leaked %g", u)
	}
}

func TestEstablishErrors(t *testing.T) {
	n, _ := plane(t, 0.3)
	if _, err := n.Establish("nope", 0, 2); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := n.Establish("voice", 0, 0); !errors.Is(err, ErrNoRoute) {
		t.Errorf("self pair: %v", err)
	}
	if _, err := n.Establish("voice", -1, 2); !errors.Is(err, ErrNoRoute) {
		t.Errorf("bad src: %v", err)
	}
	if _, err := n.Utilization("nope", 0); err == nil {
		t.Error("unknown class utilization accepted")
	}
	if _, err := n.Utilization("voice", -1); err == nil {
		t.Error("bad server accepted")
	}
}

func TestRejectionUnwindsPartialReservations(t *testing.T) {
	n, net := plane(t, 0.3)
	// Fill server 1->2 via 1->2 flows.
	for {
		if _, err := n.Establish("voice", 1, 2); err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatal(err)
			}
			break
		}
	}
	s01, _ := net.ServerFor(0, 1)
	before, _ := n.Utilization("voice", s01)
	if _, err := n.Establish("voice", 0, 2); !errors.Is(err, ErrRejected) {
		t.Fatalf("expected rejection, got %v", err)
	}
	after, _ := n.Utilization("voice", s01)
	if before != after {
		t.Errorf("partial reservation leaked: %g -> %g", before, after)
	}
}

func TestCapacityMatchesCentralController(t *testing.T) {
	// The distributed plane must admit exactly the same number of flows
	// as the centralized ledger: floor(αC/ρ) on the bottleneck.
	n, _ := plane(t, 0.3)
	admitted := 0
	for {
		if _, err := n.Establish("voice", 0, 2); err != nil {
			break
		}
		admitted++
	}
	want := int(math.Floor(0.3 * 100e6 / 32e3))
	if admitted != want {
		t.Errorf("admitted %d, want %d", admitted, want)
	}
}

func TestConcurrentEstablishTerminate(t *testing.T) {
	n, net := plane(t, 0.3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pairs := [][2]int{{0, 2}, {2, 0}, {0, 1}, {1, 2}}
			var held []FlowID
			for i := 0; i < 300; i++ {
				p := pairs[(i+w)%len(pairs)]
				if id, err := n.Establish("voice", p[0], p[1]); err == nil {
					held = append(held, id)
				}
				if len(held) > 3 {
					if err := n.Terminate(held[0]); err != nil {
						t.Errorf("terminate: %v", err)
						return
					}
					held = held[1:]
				}
			}
			for _, id := range held {
				if err := n.Terminate(id); err != nil {
					t.Errorf("drain: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if n.Active() != 0 {
		t.Errorf("flows leaked: %d", n.Active())
	}
	for s := 0; s < net.NumServers(); s++ {
		if u, _ := n.Utilization("voice", s); u != 0 {
			t.Errorf("server %d leaked %g", s, u)
		}
	}
}

func TestStopIsIdempotentAndFinal(t *testing.T) {
	n, _ := plane(t, 0.3)
	n.Stop()
	n.Stop()
	if _, err := n.Establish("voice", 0, 2); !errors.Is(err, ErrStopped) {
		t.Errorf("post-stop establish: %v", err)
	}
	if err := n.Terminate(1); !errors.Is(err, ErrStopped) {
		t.Errorf("post-stop terminate: %v", err)
	}
	if _, err := n.Utilization("voice", 0); !errors.Is(err, ErrStopped) {
		t.Errorf("post-stop utilization: %v", err)
	}
}

func TestMultiClassIsolationInPlane(t *testing.T) {
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
	n, err := Start(net, []ClassConfig{
		{Class: voice, Alpha: 0.1, Routes: vset},
		{Class: video, Alpha: 0.3, Routes: dset},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	// Exhaust video; voice must be unaffected (class isolation).
	for {
		if _, err := n.Establish("video", 0, 2); err != nil {
			break
		}
	}
	if _, err := n.Establish("voice", 0, 2); err != nil {
		t.Errorf("voice blocked by video exhaustion: %v", err)
	}
}

func BenchmarkEstablishTerminate(b *testing.B) {
	net := topology.MCI()
	m := delay.NewModel(net)
	set, _, err := routing.SP{}.Select(m, routing.Request{Class: traffic.Voice(), Alpha: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	n, err := Start(net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: set}})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := n.Establish("voice", i%19, (i+7)%19)
		if err == nil {
			if err := n.Terminate(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestStartVerified gates the distributed plane on Figure 2
// verification: a safe configuration starts (and serves traffic), an
// unsafe one is refused with the verification report attached.
func TestStartVerified(t *testing.T) {
	net, err := topology.Line(3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(net)
	set, _, err := routing.SP{}.Select(m, routing.Request{Class: traffic.Voice(), Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	n, v, err := StartVerified(net, m, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.3, Routes: set}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Safe || !v.Converged {
		t.Fatalf("verified start with unsafe report %+v", v)
	}
	id, err := n.Establish("voice", 0, 2)
	if err != nil {
		t.Fatalf("establish on verified plane: %v", err)
	}
	if err := n.Terminate(id); err != nil {
		t.Fatal(err)
	}
	n.Stop()

	// A deadline no route can meet: verification must refuse to start
	// the plane and still hand back the report.
	tight := traffic.Voice()
	tight.Deadline = 1e-9
	set, _, err = routing.SP{}.Select(m, routing.Request{Class: tight, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	n, v, err = StartVerified(net, m, []ClassConfig{{Class: tight, Alpha: 0.3, Routes: set}})
	if err == nil {
		n.Stop()
		t.Fatal("unsafe configuration started")
	}
	if n != nil {
		t.Fatal("network returned alongside refusal")
	}
	if v == nil || v.Safe {
		t.Fatalf("refusal without a failing report: %+v", v)
	}

	if _, _, err := StartVerified(net, nil, nil); err == nil {
		t.Fatal("nil model accepted")
	}
	other, err := topology.Line(4, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := StartVerified(net, delay.NewModel(other), nil); err == nil {
		t.Fatal("foreign model accepted")
	}
}
