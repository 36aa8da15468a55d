package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ubac/internal/wire"
)

// Cluster per-layer metrics, all taken from outside the processes:
// /metrics deltas of the driven member over the window, /proc CPU of
// each member, and a post-window failover phase.

func clusterLayer(layer map[string]float64, b0, b1 boundary, r *rig, lagMax float64, counts opCounts, st windowStats) {
	delta := func(name string) float64 { return b1.metrics[name] - b0.metrics[name] }
	local := delta(`ubac_cluster_lease_admits_total{path="local"}`)
	synced := delta(`ubac_cluster_lease_admits_total{path="sync"}`)
	if local+synced > 0 {
		layer["cluster.local_admit_ratio"] = local / (local + synced)
		layer["cluster.grants_per_kop"] = delta("ubac_cluster_grants_total") / ((local + synced) / 1000)
	}
	layer["cluster.grant_rtt_us_p50"] = bucketQuantile(b0.metrics, b1.metrics, "ubac_cluster_grant_seconds_bucket", 0.50) * 1e6
	layer["cluster.grant_rtt_us_p99"] = bucketQuantile(b0.metrics, b1.metrics, "ubac_cluster_grant_seconds_bucket", 0.99) * 1e6
	layer["cluster.replication_lag_bytes_max"] = lagMax
	if n := counts.Admitted + counts.Rejected; n > 0 {
		layer["cluster.spurious_reject_ratio"] = float64(counts.Spurious) / float64(n)
	}
	if total := (b1.cpu - b0.cpu).Seconds(); total > 0 {
		layer["cluster.authority_cpu_share"] = (b1.perCPU[r.auth] - b0.perCPU[r.auth]).Seconds() / total
	}
	// The wire counters of the real processes stand in for the traced
	// assembly's, which has no cluster.
	if calls := delta("ubac_wire_coalesced_batches_total"); calls > 0 {
		layer["wire.ops_per_backend_call"] = delta("ubac_wire_coalesced_ops_total") / calls
		if st.ops > 0 {
			layer["wire.frames_per_backend_call"] = float64(st.frames) / calls
			layer["wire.bytes_per_op"] = (delta(`ubac_wire_bytes_total{dir="rx"}`) + delta(`ubac_wire_bytes_total{dir="tx"}`)) / float64(st.ops)
		}
	}
}

// bucketQuantile reads a quantile off the delta of a Prometheus
// cumulative histogram, interpolating inside the bucket. The daemon's
// buckets are powers of two, so this is coarse (one bucket is a factor
// of two wide) — it is the only view of grant latency the outside has.
func bucketQuantile(before, after map[string]float64, family string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := family + `{le="`
	for name, v := range after {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(name[len(prefix):], `"}`)
		if leStr == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[name]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLE, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if b.cum == prevCum {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevCum)/(b.cum-prevCum)
		}
		prevLE, prevCum = b.le, b.cum
	}
	return bs[len(bs)-1].le
}

// failover is the post-window fault phase of a cluster layer run: a
// scheduled 1000 ops/s probe (admit, then tear down what was admitted)
// runs against the driven member while the authority is SIGKILLed.
// cluster.failover_s is kill → a survivor answering heartbeats as
// authority; cluster.fault_reject_ratio is the share of probe admits
// refused or failed from the kill until one second after that. Both
// are dominated by the suspicion and settling timers.
func failover(r *rig, dep *deployment, layer map[string]float64) {
	c, err := wire.Dial(wire.ClientOptions{Addr: r.daemons[r.target].wireAddr, Conns: 1})
	if err != nil {
		return
	}
	defer c.Close()
	const (
		workers  = 4
		interval = time.Millisecond
	)
	z := newZipf(len(dep.pairs))
	var mu sync.Mutex
	var killedAt time.Time
	var attempts, refused int
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wkr)))
			next := time.Now().Add(time.Duration(wkr) * interval)
			for {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(time.Until(next))
				next = next.Add(workers * interval)
				p := dep.pairs[z.draw(rng)]
				res, err := c.Admit([]wire.AdmitReq{{Class: dep.classIndex, Src: uint32(p[0]), Dst: uint32(p[1])}}, nil)
				ok := err == nil && res[0].Status == wire.StatusOK
				if ok {
					c.Teardown([]uint64{res[0].ID}, nil)
				}
				mu.Lock()
				if !killedAt.IsZero() {
					attempts++
					if !ok {
						refused++
					}
				}
				mu.Unlock()
			}
		}(wkr)
	}
	time.Sleep(500 * time.Millisecond)
	mu.Lock()
	killedAt = time.Now()
	mu.Unlock()
	r.daemons[r.auth].kill()

	promoted := time.Duration(0)
	deadline := killedAt.Add(10 * time.Second)
	for promoted == 0 && time.Now().Before(deadline) {
		for i, d := range r.daemons {
			if i == r.auth {
				continue
			}
			if role, _, err := heartbeat(d.wireAddr); err == nil && role == roleAuthority {
				promoted = time.Since(killedAt)
				r.auth = i
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()
	layer["cluster.failover_s"] = promoted.Seconds()
	if attempts > 0 {
		layer["cluster.fault_reject_ratio"] = float64(refused) / float64(attempts)
	}
}
