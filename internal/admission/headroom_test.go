package admission

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"ubac/internal/telemetry"
	"ubac/internal/wal"
)

// captureSink records every admission decision so lockstep tests can
// compare verdicts and bottleneck attribution event by event.
type captureSink struct {
	mu        sync.Mutex
	decisions []telemetry.Decision
}

func (s *captureSink) Decision(d telemetry.Decision) {
	s.mu.Lock()
	s.decisions = append(s.decisions, d)
	s.mu.Unlock()
}

func (s *captureSink) DecisionRun(run []telemetry.Decision) {
	s.mu.Lock()
	s.decisions = append(s.decisions, run...)
	s.mu.Unlock()
}

func (s *captureSink) FixedPoint(telemetry.FixedPoint)   {}
func (s *captureSink) RouteSelect(telemetry.RouteSelect) {}
func (s *captureSink) RouteCache(telemetry.RouteCache)   {}
func (s *captureSink) SimRun(telemetry.SimRun)           {}

func (s *captureSink) take() []telemetry.Decision {
	s.mu.Lock()
	d := s.decisions
	s.decisions = nil
	s.mu.Unlock()
	return d
}

// twin is one side of a lockstep pair: a controller plus its capture
// sink and the flows it currently holds.
type twin struct {
	ctrl *Controller
	sink *captureSink
	live []FlowID
}

func newTwin(t *testing.T, fast bool) *twin {
	t.Helper()
	// Alpha 0.2 on the 100 Mb/s line leaves 625 voice slots per hop:
	// deep enough that refills grant real leases (headroom above the
	// guard band), small enough that the schedule reaches saturation.
	c, _ := testController(t, 0.2)
	c.SetFastPath(fast)
	s := &captureSink{}
	c.SetSink(s)
	return &twin{ctrl: c, sink: s}
}

// lockstepSchedule drives both twins through an identical seeded
// op sequence and fails on the first divergence in returned errors,
// flow IDs, decision verdicts, or bottleneck attribution. checkEvery
// also compares per-server utilization that often.
func lockstepSchedule(t *testing.T, rng *rand.Rand, a, b *twin, steps, checkEvery int) {
	t.Helper()
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 0}, {2, 1}, {1, 0}}
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // singleton admit, biased so the population grows
			p := pairs[rng.Intn(len(pairs))]
			idA, errA := a.ctrl.Admit("voice", p[0], p[1])
			idB, errB := b.ctrl.Admit("voice", p[0], p[1])
			if !errors.Is(errA, errB) || !errors.Is(errB, errA) {
				t.Fatalf("step %d: admit verdicts diverge: fast=%v exact=%v", i, errA, errB)
			}
			if idA != idB {
				t.Fatalf("step %d: admit IDs diverge: fast=%v exact=%v", i, idA, idB)
			}
			if errA == nil {
				a.live = append(a.live, idA)
				b.live = append(b.live, idB)
			}
		case op < 6: // admit with no route / unknown class
			var errA, errB error
			if rng.Intn(2) == 0 {
				_, errA = a.ctrl.Admit("voice", 0, 0)
				_, errB = b.ctrl.Admit("voice", 0, 0)
			} else {
				_, errA = a.ctrl.Admit("nosuch", 0, 1)
				_, errB = b.ctrl.Admit("nosuch", 0, 1)
			}
			if !errors.Is(errA, errB) || !errors.Is(errB, errA) {
				t.Fatalf("step %d: error verdicts diverge: fast=%v exact=%v", i, errA, errB)
			}
		case op < 7: // batch admit
			n := 1 + rng.Intn(8)
			items := make([]BatchItem, n)
			for j := range items {
				p := pairs[rng.Intn(len(pairs))]
				items[j] = BatchItem{Class: "voice", Src: p[0], Dst: p[1]}
			}
			resA := a.ctrl.AdmitBatch(items, nil)
			resB := b.ctrl.AdmitBatch(items, nil)
			for j := range resA {
				if !errors.Is(resA[j].Err, resB[j].Err) || !errors.Is(resB[j].Err, resA[j].Err) {
					t.Fatalf("step %d item %d: batch verdicts diverge: fast=%v exact=%v",
						i, j, resA[j].Err, resB[j].Err)
				}
				if resA[j].ID != resB[j].ID {
					t.Fatalf("step %d item %d: batch IDs diverge", i, j)
				}
				if resA[j].Err == nil {
					a.live = append(a.live, resA[j].ID)
					b.live = append(b.live, resB[j].ID)
				}
			}
		case op < 9: // singleton teardown (same position both sides)
			if len(a.live) == 0 {
				continue
			}
			k := rng.Intn(len(a.live))
			errA := a.ctrl.Teardown(a.live[k])
			errB := b.ctrl.Teardown(b.live[k])
			if !errors.Is(errA, errB) || !errors.Is(errB, errA) {
				t.Fatalf("step %d: teardown verdicts diverge: fast=%v exact=%v", i, errA, errB)
			}
			a.live[k] = a.live[len(a.live)-1]
			a.live = a.live[:len(a.live)-1]
			b.live[k] = b.live[len(b.live)-1]
			b.live = b.live[:len(b.live)-1]
		default: // batch teardown of a random prefix slice
			if len(a.live) < 2 {
				continue
			}
			n := 1 + rng.Intn(len(a.live)/2)
			errsA := a.ctrl.TeardownBatch(a.live[:n], nil)
			errsB := b.ctrl.TeardownBatch(b.live[:n], nil)
			for j := 0; j < n; j++ {
				if !errors.Is(errsA[j], errsB[j]) || !errors.Is(errsB[j], errsA[j]) {
					t.Fatalf("step %d item %d: batch teardown diverges", i, j)
				}
			}
			a.live = a.live[n:]
			b.live = b.live[n:]
		}
		if checkEvery > 0 && i%checkEvery == 0 {
			compareUtil(t, a.ctrl, b.ctrl, i)
			checkBacking(t, a.ctrl, i)
			checkBacking(t, b.ctrl, i)
		}
	}
}

// compareUtil asserts the twins agree exactly on every per-server
// utilization figure — the fast side's lease-adjusted accounting must
// be indistinguishable from exact reservations.
func compareUtil(t *testing.T, a, b *Controller, step int) {
	t.Helper()
	for _, class := range a.Classes() {
		for s := 0; ; s++ {
			ua, errA := a.Utilization(class, s)
			ub, errB := b.Utilization(class, s)
			if (errA != nil) != (errB != nil) {
				t.Fatalf("step %d: utilization errors diverge on server %d", step, s)
			}
			if errA != nil {
				break
			}
			if ua != ub {
				t.Fatalf("step %d: utilization diverges on (%s, %d): fast=%v exact=%v",
					step, class, s, ua, ub)
			}
		}
	}
}

// checkBacking asserts the ledger's accounting identity: per (class,
// server), the raw ledger holds exactly the live flows crossing the
// server plus the budget of every cell on a route crossing it, at the
// class rate.
func checkBacking(t *testing.T, c *Controller, step int) {
	t.Helper()
	units := make([]int64, len(c.classes)*c.nsrv)
	for _, f := range c.reg.snapshot() {
		for _, s := range c.paths[f.class][f.route] {
			units[int(f.class)*c.nsrv+s]++
		}
	}
	for ci := range c.classes {
		for s := 0; s < c.nsrv; s++ {
			n := units[ci*c.nsrv+s]
			for _, r := range c.RoutesThrough(ci, s) {
				n += c.Cell(ci, r).Budget()
			}
			if got, want := c.LedgerInUseMicro(ci, s), n*c.rates[ci]; got != want {
				t.Fatalf("step %d: class %d server %d: ledger holds %d, flows and cell budgets %d", step, ci, s, got, want)
			}
		}
	}
}

// compareDecisions asserts both sides emitted the same verdict and
// bottleneck sequence. Latency differs by construction and is ignored.
func compareDecisions(t *testing.T, a, b *twin) {
	t.Helper()
	da, db := a.sink.take(), b.sink.take()
	if len(da) != len(db) {
		t.Fatalf("decision counts diverge: fast=%d exact=%d", len(da), len(db))
	}
	for i := range da {
		if da[i].Verdict != db[i].Verdict {
			t.Fatalf("decision %d: verdicts diverge: fast=%v exact=%v", i, da[i].Verdict, db[i].Verdict)
		}
		if da[i].Bottleneck != db[i].Bottleneck {
			t.Fatalf("decision %d (%v): bottleneck attribution diverges: fast=%d exact=%d",
				i, da[i].Verdict, da[i].Bottleneck, db[i].Bottleneck)
		}
	}
}

// TestFastPathEquivalenceLockstep is the tentpole property test: a
// fast-path controller and an exact-walk controller driven through an
// identical seeded schedule — growth, churn, saturation, full drain —
// must agree on every verdict, every flow ID, every bottleneck
// attribution, every interim utilization reading, and final stats.
func TestFastPathEquivalenceLockstep(t *testing.T) {
	fast := newTwin(t, true)
	exact := newTwin(t, false)
	rng := rand.New(rand.NewSource(42))

	lockstepSchedule(t, rng, fast, exact, 4000, 64)

	// Surge phase: push one pair to rejection so the guard band and
	// reclaim run, verifying both sides refuse at the same admit with
	// the same bottleneck. The pair (0,2) crosses both hops, so its
	// exhaustion saturates the whole line.
	surged := false
	for i := 0; i < 5000; i++ {
		idA, errA := fast.ctrl.Admit("voice", 0, 2)
		idB, errB := exact.ctrl.Admit("voice", 0, 2)
		if !errors.Is(errA, errB) || !errors.Is(errB, errA) {
			t.Fatalf("surge %d: verdicts diverge: fast=%v exact=%v", i, errA, errB)
		}
		if errA == nil {
			if idA != idB {
				t.Fatalf("surge %d: IDs diverge", i)
			}
			fast.live = append(fast.live, idA)
			exact.live = append(exact.live, idB)
			continue
		}
		surged = true
		break
	}
	if !surged {
		t.Fatal("surge never saturated the line")
	}
	// Churn at the edge: near-full is where a stale budget or a missing
	// reclaim would let the fast side admit what the exact test refuses.
	lockstepSchedule(t, rng, fast, exact, 1500, 32)
	compareDecisions(t, fast, exact)

	// The schedule must actually have crossed into saturation: rejects
	// prove the guard band + reclaim path ran, budget hits prove the
	// fast path served steady-state traffic.
	st := fast.ctrl.Stats()
	if st.Rejected == 0 {
		t.Fatal("schedule never saturated; the test proves nothing about the guard band")
	}
	fs := fast.ctrl.FastPathStats()
	if fs.Hits == 0 || fs.Fallback == 0 {
		t.Fatalf("schedule did not exercise both decision paths: %+v", fs)
	}
	es := exact.ctrl.FastPathStats()
	if es.Hits != 0 || es.Stale != 0 {
		t.Fatalf("exact twin leaked onto the fast path: %+v", es)
	}

	// Full drain, then the two sides must agree at quiesce too.
	for k := range fast.live {
		if err := fast.ctrl.Teardown(fast.live[k]); err != nil {
			t.Fatal(err)
		}
		if err := exact.ctrl.Teardown(exact.live[k]); err != nil {
			t.Fatal(err)
		}
	}
	compareUtil(t, fast.ctrl, exact.ctrl, -1)
	sa, sb := fast.ctrl.Stats(), exact.ctrl.Stats()
	if sa != sb {
		t.Fatalf("final stats diverge:\nfast:  %+v\nexact: %+v", sa, sb)
	}
	if sa.Active != 0 {
		t.Fatalf("drained controller still has %d active flows", sa.Active)
	}
}

// TestFastPathEquivalenceAcrossRecovery kills a journaled fast-path
// controller mid-schedule and recovers the crash image into two fresh
// controllers — one fast, one exact. Both must restore identical state
// and stay in lockstep through a second schedule.
func TestFastPathEquivalenceAcrossRecovery(t *testing.T) {
	ctrl, _ := testController(t, 0.2)
	dir := t.TempDir()
	log := openJournal(t, ctrl, dir, wal.ModeSync)

	rng := rand.New(rand.NewSource(7))
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 0}}
	var live []FlowID
	for i := 0; i < 600; i++ {
		if rng.Intn(3) < 2 || len(live) == 0 {
			p := pairs[rng.Intn(len(pairs))]
			if id, err := ctrl.Admit("voice", p[0], p[1]); err == nil {
				live = append(live, id)
			}
		} else {
			k := rng.Intn(len(live))
			if err := ctrl.Teardown(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i == 300 {
			if err := log.WriteSnapshot(ctrl.MarshalRegistry); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash := crashImage(t, dir)
	log.Close()

	build := func(fast bool) *twin {
		c, _ := testController(t, 0.2)
		c.SetFastPath(fast)
		tw := &twin{ctrl: c, sink: &captureSink{}}
		info, err := wal.Recover(crash, c.Fingerprint(), c)
		if err != nil {
			t.Fatal(err)
		}
		if !info.SnapshotLoaded && info.ReplayedAdmits == 0 {
			t.Fatal("crash image restored nothing")
		}
		if err := c.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		c.SetSink(tw.sink)
		tw.live = append([]FlowID(nil), live...)
		return tw
	}
	fast := build(true)
	exact := build(false)

	compareUtil(t, fast.ctrl, exact.ctrl, -2)
	sa, sb := fast.ctrl.Stats(), exact.ctrl.Stats()
	if sa != sb {
		t.Fatalf("recovered stats diverge:\nfast:  %+v\nexact: %+v", sa, sb)
	}

	// The recovered images must also behave identically under load:
	// same verdicts, same IDs, same attribution, through saturation.
	lockstepSchedule(t, rand.New(rand.NewSource(99)), fast, exact, 2500, 50)
	compareDecisions(t, fast, exact)
	if fs := fast.ctrl.FastPathStats(); fs.Hits == 0 {
		t.Fatalf("post-recovery fast path never hit: %+v", fs)
	}
	compareUtil(t, fast.ctrl, exact.ctrl, -3)
}

// TestFastPathConcurrentDrain churns net-zero admit/teardown pairs
// from several goroutines on both configurations, then drains and
// compares: any budget the fast path leaked, double-credited, or
// failed to subtract in its lease-adjusted accounting shows up as a
// utilization mismatch. Run with -race this doubles as the memory
// model check on the lease cells.
func TestFastPathConcurrentDrain(t *testing.T) {
	for _, fastOn := range []bool{true, false} {
		fast := newTwin(t, fastOn)
		const g = 4
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 0}}
				rng := rand.New(rand.NewSource(int64(w)))
				var mine []FlowID
				for i := 0; i < 800; i++ {
					if rng.Intn(2) == 0 || len(mine) == 0 {
						p := pairs[rng.Intn(len(pairs))]
						if id, err := fast.ctrl.Admit("voice", p[0], p[1]); err == nil {
							mine = append(mine, id)
						}
					} else {
						k := rng.Intn(len(mine))
						if err := fast.ctrl.Teardown(mine[k]); err != nil {
							t.Error(err)
							return
						}
						mine[k] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
				}
				for _, id := range mine {
					if err := fast.ctrl.Teardown(id); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if st := fast.ctrl.Stats(); st.Active != 0 {
			t.Fatalf("fast=%v: %d flows leaked after drain", fastOn, st.Active)
		}
		for _, class := range fast.ctrl.Classes() {
			for s := 0; ; s++ {
				u, err := fast.ctrl.Utilization(class, s)
				if err != nil {
					break
				}
				if u != 0 {
					t.Fatalf("fast=%v: server %d still shows %v utilization after drain",
						fastOn, s, u)
				}
			}
		}
	}
}
