package admission

import (
	"math/rand"
	"sync"
	"testing"

	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// stressController builds a small ring network where every ordered pair
// is routed over its clockwise arc, sized so that capacity contention is
// real (admissions fail under load, forcing the rollback path).
func stressController(t *testing.T, alpha float64) (*Controller, int) {
	t.Helper()
	const n = 6
	net, err := topology.Ring(n, 2e6) // 2 Mb/s links: ~6 concurrent 32 kb/s calls per hop at alpha=0.1
	if err != nil {
		t.Fatal(err)
	}
	set := routes.NewSet(net)
	for src := 0; src < n; src++ {
		for hops := 1; hops < n; hops++ {
			path := make([]int, hops+1)
			for j := range path {
				path[j] = (src + j) % n
			}
			r, err := routes.FromRouterPath(net, "voice", path)
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctrl, err := NewController(net, []ClassConfig{{Class: traffic.Voice(), Alpha: alpha, Routes: set}}, AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, n
}

// TestStressAdmitTeardown hammers Admit/Teardown from many goroutines
// (the CI run is under -race) and checks the two safety invariants the
// paper's run-time module must keep: no server is ever reserved past its
// verified utilization assignment, and the ledger balances to exactly
// zero once every admitted flow is torn down.
func TestStressAdmitTeardown(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 2000
		alpha      = 0.1
	)
	ctrl, n := stressController(t, alpha)
	nsrv := ctrl.net.NumServers()

	var wg sync.WaitGroup
	leftover := make([][]FlowID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			var held []FlowID
			for op := 0; op < opsPerG; op++ {
				switch {
				case len(held) > 0 && rng.Intn(3) == 0:
					// Tear down a random held flow.
					i := rng.Intn(len(held))
					if err := ctrl.Teardown(held[i]); err != nil {
						t.Errorf("teardown of live flow: %v", err)
						return
					}
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
				default:
					src := rng.Intn(n)
					dst := (src + 1 + rng.Intn(n-1)) % n
					id, err := ctrl.Admit("voice", src, dst)
					switch err {
					case nil:
						held = append(held, id)
					case ErrCapacity:
						// Expected under contention.
					default:
						t.Errorf("admit(%d,%d): %v", src, dst, err)
						return
					}
				}
				if op%97 == 0 {
					// Mid-flight safety: reservations never exceed the
					// verified assignment (limits round down to whole
					// microbits, so alpha itself is the hard ceiling).
					s := rng.Intn(nsrv)
					u, err := ctrl.Utilization("voice", s)
					if err != nil {
						t.Errorf("utilization: %v", err)
						return
					}
					if u > alpha*(1+1e-9) {
						t.Errorf("server %d over-admitted: utilization %g > alpha %g", s, u, alpha)
						return
					}
				}
			}
			leftover[g] = held
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("stress invariants violated")
	}

	// Drain everything still held and check the ledger balances.
	for _, held := range leftover {
		for _, id := range held {
			if err := ctrl.Teardown(id); err != nil {
				t.Fatalf("final teardown: %v", err)
			}
		}
	}
	st := ctrl.Stats()
	if st.Active != 0 {
		t.Fatalf("%d flows active after full teardown", st.Active)
	}
	if st.Admitted != st.TornDown {
		t.Fatalf("admitted %d != torn down %d", st.Admitted, st.TornDown)
	}
	if st.MaxActive < st.Active || st.Admitted == 0 {
		t.Fatalf("implausible stats %+v", st)
	}
	for s := 0; s < nsrv; s++ {
		u, err := ctrl.Utilization("voice", s)
		if err != nil {
			t.Fatal(err)
		}
		if u != 0 {
			t.Fatalf("server %d utilization %g after full teardown", s, u)
		}
	}
	// With the ledger empty, every pair must report its full headroom.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			h, err := ctrl.Headroom("voice", src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if h <= 0 {
				t.Fatalf("pair (%d,%d) headroom %d after full teardown", src, dst, h)
			}
		}
	}
}
