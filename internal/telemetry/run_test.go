package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDecisionRunMatchesDecisions is the recorder's equivalence
// property: one seeded decision stream — all eight verdicts, four
// classes (one of them unnamed), tenants, run lengths from 1 to 4096 —
// goes through Decision one at a time into one sink and through
// DecisionRun a run at a time into another, and the two must expose
// the same /metrics bytes and the same ring, whether the ring is far
// smaller than a run (2, 64) or holds one whole (4096).
func TestDecisionRunMatchesDecisions(t *testing.T) {
	classes := []string{"voice", "video", "bulk", ""}
	tenants := []string{"", "tenant-a", "tenant-b"}
	lengths := []int{1, 1, 2, 3, 7, 63, 64, 65, 200, 1000, 4096}
	for _, capacity := range []int{2, 64, 4096} {
		t.Run(fmt.Sprintf("ring=%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			regOne, regRun := NewRegistry(), NewRegistry()
			one := NewRegistrySink(regOne, NewRing(capacity))
			run := NewRegistrySink(regRun, NewRing(capacity))
			when := time.Unix(1_700_000_000, 0)
			sawVerdict := map[Verdict]bool{}
			flow := uint64(0)
			for r := 0; r < 60; r++ {
				n := lengths[rng.Intn(len(lengths))]
				if r == 0 {
					n = 4096
				}
				when = when.Add(time.Duration(1+rng.Intn(1000)) * time.Microsecond)
				latency := time.Duration(rng.Intn(1 << uint(rng.Intn(24))))
				// Most runs are one class, as a coalesced wire batch is; the
				// rest switch class from decision to decision.
				mixed := rng.Intn(3) == 0
				class := classes[rng.Intn(len(classes))]
				ds := make([]Decision, n)
				for i := range ds {
					if mixed {
						class = classes[rng.Intn(len(classes))]
					}
					v := Verdict(rng.Intn(int(numVerdicts)))
					sawVerdict[v] = true
					d := Decision{
						Class:      class,
						Tenant:     tenants[rng.Intn(len(tenants))],
						Src:        rng.Intn(20),
						Dst:        rng.Intn(20),
						Rate:       float64(rng.Intn(4)) * 32e3,
						Verdict:    v,
						Bottleneck: -1,
						Latency:    latency,
						When:       when,
					}
					switch {
					case v == RejectedCapacity:
						d.Bottleneck = rng.Intn(40)
					case !v.Rejected():
						flow++
						d.FlowID = flow
					}
					ds[i] = d
				}
				for _, d := range ds {
					one.Decision(d)
				}
				run.DecisionRun(ds)
			}
			if len(sawVerdict) != int(numVerdicts) {
				t.Fatalf("stream covered %d of %d verdicts", len(sawVerdict), numVerdicts)
			}
			var a, b strings.Builder
			if err := regOne.WritePrometheus(&a); err != nil {
				t.Fatal(err)
			}
			if err := regRun.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Errorf("expositions differ:\n--- Decision × n\n%s\n--- DecisionRun\n%s", a.String(), b.String())
			}
			if !strings.Contains(a.String(), fmt.Sprintf("ubac_events_total %d\n", one.Ring().Total())) {
				t.Error("ubac_events_total is not the ring's total")
			}
			evOne, evRun := one.Ring().Snapshot(0), run.Ring().Snapshot(0)
			if len(evOne) != one.Ring().Cap() {
				t.Fatalf("snapshot holds %d events, want the full ring of %d", len(evOne), one.Ring().Cap())
			}
			if !reflect.DeepEqual(evOne, evRun) {
				t.Errorf("rings differ:\nDecision × n: %+v\nDecisionRun:  %+v", evOne, evRun)
			}
		})
	}
}

// stamped returns a record whose every field follows from k, so a
// reader can tell a torn one apart: a field that came from another
// record fails consistent.
func stamped(k uint64) record {
	classes := [...]string{"voice", "video", "bulk"}
	return record{
		TimeUnixNano: int64(k) * 5,
		FlowID:       k,
		Class:        classes[k%3],
		Tenant:       classes[k%2],
		Src:          int32(k % 1000),
		Dst:          int32(k%1000) ^ 0x155,
		RateBPS:      float64(k),
		Verdict:      Verdict(k % uint64(numVerdicts)),
		Bottleneck:   -int32(k % 7),
		LatencyNS:    int64(k) * 3,
	}
}

func consistent(ev Event) bool {
	want := stamped(ev.FlowID)
	return ev == want.event(ev.Seq)
}

// TestRingAppendRunConcurrent is the -race test for the bulk append:
// two writers append runs that straddle chunks, a third appends single
// events, and readers snapshot throughout. No snapshot may hold a torn
// event or a sequence number twice; the tickets the writers drew must
// tile 1…Total exactly; and afterwards the ring still holds the newest
// events and still turns its chunks over.
func TestRingAppendRunConcurrent(t *testing.T) {
	r := NewRing(256)
	const perWriter = 40000
	type span struct{ first, n uint64 }
	spans := make([][]span, 3)
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := uint64(w) * perWriter
			for done := 0; done < perWriter; {
				n := 1
				if w > 0 {
					n = 1 + rng.Intn(150)
				}
				if n > perWriter-done {
					n = perWriter - done
				}
				k0 := base + uint64(done)
				var first uint64
				if w == 0 {
					first = r.add(stamped(k0))
				} else {
					first = r.appendRun(n, func(i int, slot *record) { *slot = stamped(k0 + uint64(i)) })
				}
				spans[w] = append(spans[w], span{first, uint64(n)})
				done += n
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := r.Snapshot(0)
				for i, ev := range evs {
					if !consistent(ev) {
						t.Errorf("torn event: %+v", ev)
						return
					}
					if i > 0 && ev.Seq >= evs[i-1].Seq {
						t.Errorf("snapshot not strictly newest-first at %d: seq %d after %d", i, ev.Seq, evs[i-1].Seq)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	var all []span
	for _, s := range spans {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].first < all[j].first })
	next := uint64(1)
	for _, s := range all {
		if s.first != next {
			t.Fatalf("tickets do not tile: run starts at %d, want %d", s.first, next)
		}
		next += s.n
	}
	if total := r.Total(); next-1 != total || total != 3*perWriter {
		t.Fatalf("tiled %d tickets, ring total %d, want %d", next-1, total, 3*perWriter)
	}

	evs := r.Snapshot(0)
	if len(evs) != r.Cap() {
		t.Fatalf("final snapshot holds %d events, want %d", len(evs), r.Cap())
	}
	for i, ev := range evs {
		if want := r.Total() - uint64(i); ev.Seq != want || !consistent(ev) {
			t.Fatalf("evs[%d] = %+v, want a whole event with seq %d", i, ev, want)
		}
	}
	lap := func() {
		for i := 0; i < 4; i++ {
			r.appendRun(128, func(i int, slot *record) { *slot = stamped(uint64(i)) })
		}
	}
	lap() // whatever the readers kept from reuse is displaced by now
	if allocs := testing.AllocsPerRun(10, lap); allocs != 0 {
		t.Errorf("%g allocations per 512 appends after the concurrent phase, want 0", allocs)
	}
}

// TestHistogramObserveN: one weighted observation is n plain ones.
func TestHistogramObserveN(t *testing.T) {
	var one, many Histogram
	for _, c := range []struct {
		d time.Duration
		n uint64
	}{{100 * time.Nanosecond, 100}, {10 * time.Microsecond, 1}, {0, 3}, {-5, 2}, {time.Second, 0}} {
		for i := uint64(0); i < c.n; i++ {
			one.Observe(c.d)
		}
		many.ObserveN(c.d, c.n)
	}
	if one.Count() != 106 || many.Count() != one.Count() || many.Sum() != one.Sum() || many.Max() != one.Max() {
		t.Errorf("ObserveN: count %d sum %v max %v; Observe × n: count %d sum %v max %v",
			many.Count(), many.Sum(), many.Max(), one.Count(), one.Sum(), one.Max())
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if many.Quantile(p) != one.Quantile(p) {
			t.Errorf("p%g: %v vs %v", p*100, many.Quantile(p), one.Quantile(p))
		}
	}
}

// TestDecisionRunOverwritesRecycledSlot guards the in-place record
// fill: a recycled slot still holds its last record, so a field the
// fill forgot would surface as someone else's value. Every field of the
// old records is set (by reflection, so a field added to record later
// is covered), the new decisions are all zero values, and the ring must
// show exactly what the decisions say.
func TestDecisionRunOverwritesRecycledSlot(t *testing.T) {
	ring := NewRing(2)
	var poison record
	pv := reflect.ValueOf(&poison).Elem()
	for i := 0; i < pv.NumField(); i++ {
		switch f := pv.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("stale")
		case reflect.Int32, reflect.Int64:
			f.SetInt(77)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(7)
		case reflect.Float64:
			f.SetFloat(77)
		default:
			t.Fatalf("record.%s: unhandled kind %v", pv.Type().Field(i).Name, f.Kind())
		}
	}
	for i := 0; i < 16; i++ {
		ring.add(poison)
	}
	s := NewRegistrySink(NewRegistry(), ring)
	when := time.Unix(0, 12345)
	s.DecisionRun([]Decision{{When: when}, {When: when}})
	want := []Event{
		{Seq: 18, TimeUnixNano: 12345, Verdict: "admit"},
		{Seq: 17, TimeUnixNano: 12345, Verdict: "admit"},
	}
	if got := ring.Snapshot(0); !reflect.DeepEqual(got, want) {
		t.Errorf("ring = %+v, want %+v", got, want)
	}
}
