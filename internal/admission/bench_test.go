package admission

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ubac/internal/policy"
	"ubac/internal/routes"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// contentionRing is the router count of the contention benchmark
// topology; 16 workers on adjacent single-hop pairs touch 16 distinct
// link servers, so "disjoint" runs isolate the controller's shared flow
// bookkeeping from ledger contention.
const contentionRing = 16

// contentionController builds a ring of 100 Mb/s links with one
// clockwise single-hop route per adjacent pair at alpha=0.5: ~1562
// concurrent voice flows fit per server, so admit/teardown pairs from
// ≤16 workers never reject and the benchmark measures pure bookkeeping
// throughput.
func contentionController(b testing.TB) *Controller {
	return ringController(b, 100e6)
}

// ringController is contentionController at a chosen link capacity
// (churn tests and benchmarks hold far more than 1562 flows).
func ringController(b testing.TB, capacity float64) *Controller {
	b.Helper()
	net, err := topology.Ring(contentionRing, capacity)
	if err != nil {
		b.Fatal(err)
	}
	set := routes.NewSet(net)
	for src := 0; src < contentionRing; src++ {
		r, err := routes.FromRouterPath(net, "voice", []int{src, (src + 1) % contentionRing})
		if err != nil {
			b.Fatal(err)
		}
		if err := set.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	ctrl, err := NewController(net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.5, Routes: set}}, AtomicLedger)
	if err != nil {
		b.Fatal(err)
	}
	return ctrl
}

// runAdmitTeardown spreads b.N admit+teardown pairs over g goroutines.
// In disjoint mode worker w churns pair (w, w+1) — its own route and
// servers; in shared mode every worker churns pair (0, 1).
func runAdmitTeardown(b *testing.B, ctrl *Controller, g int, disjoint bool) {
	b.Helper()
	var wg sync.WaitGroup
	per, extra := b.N/g, b.N%g
	b.ResetTimer()
	for w := 0; w < g; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			src, dst := 0, 1
			if disjoint {
				src = w % contentionRing
				dst = (src + 1) % contentionRing
			}
			for i := 0; i < n; i++ {
				id, err := ctrl.Admit("voice", src, dst)
				if err != nil {
					b.Error(err)
					return
				}
				if err := ctrl.Teardown(id); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "admits/s")
}

// BenchmarkAdmitBatch compares singleton Admit/Teardown loops against
// AdmitBatch/TeardownBatch at growing batch sizes: the delta is the
// per-decision bookkeeping (registry lock, counters, timestamps) that
// batching amortizes. ns/op is per flow, not per batch.
func BenchmarkAdmitBatch(b *testing.B) {
	for _, size := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("loop/size=%d", size), func(b *testing.B) {
			ctrl := contentionController(b)
			ids := make([]FlowID, size)
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				for j := 0; j < size; j++ {
					id, err := ctrl.Admit("voice", j%contentionRing, (j+1)%contentionRing)
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = id
				}
				for j := 0; j < size; j++ {
					if err := ctrl.Teardown(ids[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("batch/size=%d", size), func(b *testing.B) {
			ctrl := contentionController(b)
			items := make([]BatchItem, size)
			for j := range items {
				items[j] = BatchItem{Class: "voice", Src: j % contentionRing, Dst: (j + 1) % contentionRing}
			}
			var results []BatchResult
			ids := make([]FlowID, size)
			var errs []error
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				results = ctrl.AdmitBatch(items, results)
				for j, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
					ids[j] = r.ID
				}
				errs = ctrl.TeardownBatch(ids, errs)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	// churn is the shape a wire server sees, and the one the hold-0 rows
	// above cannot: 8 owners take turns, each admitting a 64-op batch and
	// releasing its oldest once it holds 4, so every claim has to find
	// slots some other batch freed. slots/live is the registry's
	// footprint over its live flows at the end (bounded; the seed's grew
	// with b.N), registry-B/op the footprint in bytes per flow admitted.
	b.Run("churn/size=64", func(b *testing.B) {
		ctrl := ringController(b, 1e12)
		b.ReportAllocs()
		b.ResetTimer()
		churn64(b, ctrl, b.N)
		b.StopTimer()
		st := ctrl.Stats()
		b.ReportMetric(float64(st.RegistrySlots)/float64(st.Active), "slots/live")
		b.ReportMetric(float64(st.RegistrySlots)*16/float64(b.N), "registry-B/op")
	})
	// telemetry is churn with the shipped sink attached (registry and a
	// 4096-event ring, as ubacd runs it). sink-ns/op is what observing
	// one decision adds: this run's time less the same b.N flows through
	// a sinkless twin, over the 2·b.N decisions (each flow is admitted
	// and torn down).
	b.Run("telemetry/size=64", func(b *testing.B) {
		off := churn64(b, ringController(b, 1e12), b.N)
		ctrl := ringController(b, 1e12)
		ctrl.SetSink(telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewRing(4096)))
		b.ReportAllocs()
		b.ResetTimer()
		on := churn64(b, ctrl, b.N)
		b.StopTimer()
		b.ReportMetric(float64(on-off)/float64(2*b.N), "sink-ns/op")
	})
}

// churn64 admits n flows through ctrl in the churn pattern — 8 owners
// in turn, 64-op batches, each owner releasing its oldest batch once it
// holds 4 — and returns how long that took.
func churn64(b *testing.B, ctrl *Controller, n int) time.Duration {
	const owners, hold, size = 8, 4, 64
	items := make([]BatchItem, size)
	for j := range items {
		items[j] = BatchItem{Class: "voice", Src: j % contentionRing, Dst: (j + 1) % contentionRing}
	}
	var held [owners][hold][]FlowID
	var results []BatchResult
	var errs []error
	turn := 0
	start := time.Now()
	for i := 0; i < n; i += size {
		h := &held[turn%owners][turn/owners%hold]
		turn++
		if len(*h) > 0 {
			errs = ctrl.TeardownBatch(*h, errs)
		}
		results = ctrl.AdmitBatch(items, results)
		*h = (*h)[:0]
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			*h = append(*h, r.ID)
		}
	}
	return time.Since(start)
}

// BenchmarkAdmissionContention is the package-doc comparison: the
// ledger at 1/4/16 goroutines on shared vs disjoint routes. The
// disjoint/g=16 row is the acceptance point for the sharded flow
// registry (≥2× admits/s over the seed global-mutex registry on a
// multi-core runner).
func BenchmarkAdmissionContention(b *testing.B) {
	for _, mode := range []string{"shared", "disjoint"} {
		for _, g := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/g=%d", mode, g), func(b *testing.B) {
				runAdmitTeardown(b, contentionController(b), g, mode == "disjoint")
			})
		}
	}
}

// BenchmarkAdmitWithPolicy prices the policy plane on the singleton
// admit/teardown cycle: always_admit must match the policy-free
// baseline (SetPolicy strips it to nil), token_bucket adds one map
// lookup plus CAS refill/spend, slo_gated adds a cached load-signal
// read. All three stay allocation-free.
func BenchmarkAdmitWithPolicy(b *testing.B) {
	cases := []struct {
		name    string
		install func(b *testing.B, c *Controller)
	}{
		{"always_admit", func(b *testing.B, c *Controller) {
			c.SetPolicy(policy.AlwaysAdmit{})
		}},
		{"token_bucket", func(b *testing.B, c *Controller) {
			// Sized so the bucket never empties: the benchmark measures
			// decision cost, not denial cost.
			tb, err := policy.NewTokenBucket(policy.BucketConfig{Rate: 1e9, Burst: 1e9},
				map[string]policy.BucketConfig{"tenant-a": {Rate: 1e9, Burst: 1e9}})
			if err != nil {
				b.Fatal(err)
			}
			c.SetPolicy(tb)
		}},
		{"slo_gated", func(b *testing.B, c *Controller) {
			load := &policy.SampledLoad{Sample: c.MaxUtilization, Interval: 100 * time.Microsecond}
			g, err := policy.NewSLOGated(map[string]policy.Tier{"tenant-a": policy.TierStandard},
				policy.TierStandard, 0.9, 0.7, load)
			if err != nil {
				b.Fatal(err)
			}
			c.SetPolicy(g)
		}},
	}
	for _, pc := range cases {
		b.Run(pc.name, func(b *testing.B) {
			ctrl := contentionController(b)
			pc.install(b, ctrl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := ctrl.AdmitWithTenant("voice", "tenant-a", 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := ctrl.Teardown(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
