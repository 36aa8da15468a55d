package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ubac/internal/workload"
)

// The names ISSUE 11 fixed. They are spelled out here, not derived
// from spec.go, so that renaming a metric or workload in the tables
// fails this package's tests.
var (
	issueWorkloads = []string{"wire_batch", "wire_batch_wal", "overload_open", "cluster_edge"}
	issueEndToEnd  = []string{"setup_s", "admits_per_s", "admit_p50_us", "admit_p99_us", "cpu_us_per_op", "rss_mb", "ok_ratio"}
	issuePerLayer  = []string{
		"wire.encode_ns_per_op", "wire.decode_ns_per_op", "wire.ping_rtt_us", "wire.stub_loop_ns_per_op",
		"wire.ops_per_backend_call", "wire.frames_per_backend_call", "wire.bytes_per_op", "wire.self_us_per_frame",
		"admission.admit_ns", "admission.teardown_ns", "admission.batch_ns_per_op", "admission.reject_ns",
		"admission.fastpath_hit_ratio", "admission.fastpath_stale_ratio", "admission.allocs_per_op", "admission.backend_self_ns_per_op",
		"telemetry.decision_ns", "telemetry.sink_ns_per_op", "telemetry.on_off_delta_ns", "telemetry.scrape_ms",
		"policy.token_bucket_ns", "policy.slo_gated_ns", "policy.reserve_headroom_ns",
		"wal.journal_ns_per_op", "wal.bytes_per_op", "wal.ops_per_fsync", "wal.fsync_ms_p50", "wal.fsync_ms_p99",
		"wal.sync_commit_us_p50", "wal.snapshot_ms", "wal.recover_s", "wal.recover_ns_per_record", "wal.disk_mb",
		"cluster.local_admit_ratio", "cluster.grants_per_kop", "cluster.grant_rtt_us_p50", "cluster.grant_rtt_us_p99",
		"cluster.replication_lag_bytes_max", "cluster.spurious_reject_ratio", "cluster.authority_cpu_share",
		"cluster.failover_s", "cluster.fault_reject_ratio",
		"ubacd.http_admit_rtt_us_p50", "ubacd.http_batch_ns_per_op",
		"core.configure_ms", "routing.select_ms", "delay.solve_ms", "delay.iterations", "config.maxutil_s",
		"loadgen.rtt_p50_us", "loadgen.rtt_p99_us", "loadgen.lag_p99_us", "loadgen.cpu_busy_ratio", "ubacd.cpu_busy_ratio",
		"trace.overhead_ratio", "trace.residual_ratio", "fail_ratio",
	}
)

// Test-only views of the generator and the checks.

func (k *checks) ok() bool { return len(k.Violations) == 0 }

// share returns the probability mass of the route at the given rank.
func (z *zipf) share(rank int) float64 {
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}

// closedSchedule materialises the first frames×frameOps draws of every
// client, as bytes — what the determinism test compares.
func closedSchedule(z *zipf, seed int64, clients, frames, frameOps int) []byte {
	var out []byte
	for c := 0; c < clients; c++ {
		s := newClientStream(z, seed, c)
		for i := 0; i < frames*frameOps; i++ {
			out = binary.LittleEndian.AppendUint32(out, uint32(s.next()))
		}
	}
	return out
}

// openScheduleBytes is the byte image of an open schedule, for the
// determinism test.
func openScheduleBytes(calls []openCall, events []workload.Event) []byte {
	var out []byte
	for _, c := range calls {
		out = binary.LittleEndian.AppendUint64(out, uint64(int64(c.Arrive*1e9)))
		out = binary.LittleEndian.AppendUint64(out, uint64(int64(c.Holding*1e9)))
		out = binary.LittleEndian.AppendUint32(out, uint32(c.Route))
	}
	for _, e := range events {
		b := byte(0)
		if e.Start {
			b = 1
		}
		out = append(out, b)
		out = binary.LittleEndian.AppendUint32(out, uint32(e.Call))
	}
	return out
}

func TestHistMatchesSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{50, 1000, 200000} {
		h := newHist()
		samples := make([]int64, n)
		for i := range samples {
			// Log-normal around 100 µs with a heavy tail, in ns.
			samples[i] = int64(math.Exp(rng.NormFloat64()*1.2 + math.Log(1e5)))
			h.record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q*float64(n))) - 1
			if rank < 0 {
				rank = 0
			}
			exact := float64(samples[rank])
			got := h.quantile(q)
			if rel := math.Abs(got-exact) / exact; rel > 0.01 {
				t.Errorf("n=%d q=%g: hist %.0f, sorted samples %.0f (%.2f%% off, want <= 1%%)", n, q, got, exact, 100*rel)
			}
		}
		if h.count() != uint64(n) {
			t.Errorf("count %d, want %d", h.count(), n)
		}
	}
}

func TestHistMergeAndHighestPercentile(t *testing.T) {
	a, b, all := newHist(), newHist(), newHist()
	for i := int64(1); i <= 5000; i++ {
		v := i * 137
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
		all.record(v)
	}
	a.merge(b)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if a.quantile(q) != all.quantile(q) {
			t.Errorf("q=%g: merged %v, single %v", q, a.quantile(q), all.quantile(q))
		}
	}
	// 5000 samples: p99.9 has only 5 beyond it, p99 has 50.
	if q, _, ok := a.highest(); !ok || q != 0.99 {
		t.Errorf("highest percentile of 5000 samples = %v (ok=%v), want 0.99", q, ok)
	}
	few := newHist()
	for i := int64(0); i < 15; i++ {
		few.record(i)
	}
	if _, _, ok := few.highest(); ok {
		t.Errorf("15 samples cannot support even a median with ten samples beyond it")
	}
}

func TestSchedulesAreAFunctionOfTheSeed(t *testing.T) {
	z := newZipf(342)
	if a, b := closedSchedule(z, 1, 8, 20, 64), closedSchedule(z, 1, 8, 20, 64); !bytes.Equal(a, b) {
		t.Error("closed-loop schedule differs between two generations from one seed")
	}
	if a, b := closedSchedule(z, 1, 8, 20, 64), closedSchedule(z, 2, 8, 20, 64); bytes.Equal(a, b) {
		t.Error("closed-loop schedules of seeds 1 and 2 are identical")
	}
	gen := func(seed int64) []byte {
		calls, events, err := openSchedule(z, seed, 5000, 0.5, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) < 8000 || len(events) != 2*len(calls) {
			t.Fatalf("open schedule: %d calls, %d events", len(calls), len(events))
		}
		return openScheduleBytes(calls, events)
	}
	if !bytes.Equal(gen(1), gen(1)) {
		t.Error("open-loop schedule differs between two generations from one seed")
	}
	if bytes.Equal(gen(1), gen(2)) {
		t.Error("open-loop schedules of seeds 1 and 2 are identical")
	}
	// Zipf(1): the top route carries 1/H(342) of the draws.
	counts := make(map[int32]int)
	s := newClientStream(z, 3, 0)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.next()]++
	}
	if got, want := float64(counts[z.routes[0]])/draws, z.share(0); math.Abs(got-want) > 0.01 {
		t.Errorf("hottest route drew %.4f of ops, want %.4f", got, want)
	}
}

// TestCheckerCatchesWrongVerdicts feeds deliberately wrong verdict
// streams to every check and requires each to object.
func TestCheckerCatchesWrongVerdicts(t *testing.T) {
	// A two-route toy: routes 0 and 1 share server 0 (capacity 3).
	dep := &deployment{paths: [][]int{{0, 1}, {0, 2}}, caps: []int64{3, 10, 10}}

	t.Run("over-admission", func(t *testing.T) {
		sh := newShadow(dep)
		sc := sh.newScratch()
		routes := []int32{0, 1, 0, 1} // four flows through a server that holds three
		sh.sendAdmits(sc, routes, 1)
		sh.admitVerdicts(sc, routes, []bool{true, true, true, true}, 1, 2)
		var k checks
		k.checkShadow(sh)
		if k.ok() || !strings.Contains(k.Violations[0], "safety") {
			t.Errorf("four acknowledged flows on a three-flow server passed: %v", k.Violations)
		}
	})
	t.Run("spurious reject", func(t *testing.T) {
		sh := newShadow(dep)
		sc := sh.newScratch()
		sh.sendAdmits(sc, []int32{0}, 1)
		if n := sh.admitVerdicts(sc, []int32{0}, []bool{false}, 1, 2); n != 1 {
			t.Errorf("a reject on an empty ledger counted %d spurious, want 1", n)
		}
		// Fill server 0, then a reject is legitimate.
		full := []int32{0, 0, 0}
		sh.sendAdmits(sc, full, 3)
		sh.admitVerdicts(sc, full, []bool{true, true, true}, 3, 4)
		sh.sendAdmits(sc, []int32{1}, 5)
		if n := sh.admitVerdicts(sc, []int32{1}, []bool{false}, 5, 6); n != 0 {
			t.Errorf("a reject on a full server counted %d spurious, want 0", n)
		}
		// The server was full while the admit was in flight, even if a
		// teardown lands before the verdict is read: still legitimate.
		sh.sendAdmits(sc, []int32{1}, 7)
		sh.sendTeardowns(sc, []int32{0}, 8)
		sh.teardownsDone(sc, []int32{0}, 8)
		if n := sh.admitVerdicts(sc, []int32{1}, []bool{false}, 7, 9); n != 0 {
			t.Errorf("a reject decided while the server was full counted %d spurious, want 0", n)
		}
		c := opCounts{Attempted: 100, Spurious: 5}
		if c.failed() != 0 || c.failRatio() != 0.05 {
			t.Errorf("5 spurious of 100: failed %d failRatio %v, want 0 and 0.05", c.failed(), c.failRatio())
		}
	})
	t.Run("undrained ledger", func(t *testing.T) {
		sh := newShadow(dep)
		sc := sh.newScratch()
		sh.sendAdmits(sc, []int32{0}, 1)
		sh.admitVerdicts(sc, []int32{0}, []bool{true}, 1, 2)
		var k checks
		k.checkShadow(sh)
		if k.ok() {
			t.Error("a ledger still holding a flow after the drain passed")
		}
	})
	t.Run("oracle", func(t *testing.T) {
		var k checks
		k.checkOracle(0.305, 0.300)
		if !k.ok() {
			t.Errorf("0.005 off the oracle failed: %v", k.Violations)
		}
		k.checkOracle(0.32, 0.30)
		if k.ok() {
			t.Error("a reject ratio 0.02 off the oracle passed")
		}
	})
	t.Run("leak", func(t *testing.T) {
		var k checks
		k.checkLeak(0, 1250, 1250)
		if !k.ok() {
			t.Errorf("a clean drain failed: %v", k.Violations)
		}
		k.checkLeak(3, 1250, 1250)
		k.checkLeak(0, 1250, 1247)
		if len(k.Violations) != 2 {
			t.Errorf("leaked flows and lost headroom raised %d violations, want 2", len(k.Violations))
		}
	})
	t.Run("recovery", func(t *testing.T) {
		var k checks
		k.checkRecovered(2048, 2040, 8, 0, 0)
		if !k.ok() {
			t.Errorf("a clean recovery failed: %v", k.Violations)
		}
		k.checkRecovered(2048, 2040, 7, 1, 0)  // one id answered something else
		k.checkRecovered(2048, 2048, 0, 0, 17) // ghost flows hold the ledger
		if len(k.Violations) != 2 {
			t.Errorf("a bad teardown status and ghost flows raised %d violations, want 2", len(k.Violations))
		}
	})
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", doc.Paths)
	}
	same := func(kind string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s in BENCHMARK.json differ from spec.go:\n json %s\n spec %s", kind, g, w)
		}
	}
	same("workloads", doc.Workloads, workloads)
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	hasSetup := false
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, w := range doc.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestSmokeEveryWorkload drives every workload's traffic shape for one
// second against the in-process assembly (the cluster shape too: its
// three processes cannot be assembled in-process, so it runs against
// the plain stack), emits the result documents the command would, and
// requires every workload and metric name of the issue in them.
func TestSmokeEveryWorkload(t *testing.T) {
	dep, err := configure(nil)
	if err != nil {
		t.Fatal(err)
	}
	scratchDir := t.TempDir()
	set := setDoc{Seed: 1, Seconds: 1, EndToEnd: endToEnd}
	for _, w := range workloads {
		set.Workloads = append(set.Workloads, w.Name)
		res, err := runAssembly(dep, w.Name, 1, makeWindow(time.Second), true, scratchDir, "")
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.checks.ok() {
			t.Errorf("%s: %v", w.Name, res.checks.Violations)
		}
		if res.counts.failed() != 0 || res.counts.Admitted == 0 {
			t.Errorf("%s: counts %+v", w.Name, res.counts)
		}
		if w.Name != wlOverloadOpen && res.counts.Rejected != 0 {
			t.Errorf("%s: %d rejects on a workload that stays far below every limit", w.Name, res.counts.Rejected)
		}
		if res.summary.ResidualRatio < 0 || res.summary.ResidualRatio > 0.5 {
			t.Errorf("%s: trace residual %v", w.Name, res.summary.ResidualRatio)
		}
		e2e := map[string]float64{
			"admits_per_s": res.stats.admitsPerS,
			"admit_p50_us": res.stats.p50US,
			"admit_p99_us": res.stats.p99US,
			"ok_ratio":     1 - res.counts.failRatio(),
		}
		for _, trace := range []bool{false, true} {
			doc := &runDoc{Workload: w.Name, Seed: 1, Seconds: 1, Trace: trace, Counts: res.counts}
			doc.Correct, doc.Attempted, doc.Failed = res.checks.ok(), res.counts.Attempted, res.counts.failed()
			if trace {
				doc.Metrics = metricSet(perLayer, res.layer)
			} else {
				doc.Metrics = metricSet(endToEnd, e2e)
			}
			set.Runs = append(set.Runs, doc)
		}
		if w.Name == wlWireBatch && res.layer["wal.journal_ns_per_op"] != 0 {
			t.Error("wire_batch reports WAL time: the bypass workload is not bypassing")
		}
		if w.Name == wlWireBatchWAL && res.layer["wal.journal_ns_per_op"] <= 0 {
			t.Error("wire_batch_wal reports no WAL time: the exercise workload is not exercising")
		}
	}
	out, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	var back setDoc
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	byRun := make(map[string]*runDoc)
	for _, r := range back.Runs {
		key := r.Workload + "/e2e"
		if r.Trace {
			key = r.Workload + "/layer"
		}
		byRun[key] = r
	}
	for _, wl := range issueWorkloads {
		for kind, names := range map[string][]string{"e2e": issueEndToEnd, "layer": issuePerLayer} {
			r := byRun[wl+"/"+kind]
			if r == nil {
				t.Errorf("no %s run for workload %s in the emitted document", kind, wl)
				continue
			}
			if len(r.Metrics) != len(names) {
				t.Errorf("%s/%s: %d metrics emitted, the issue lists %d", wl, kind, len(r.Metrics), len(names))
			}
			for _, name := range names {
				if _, ok := r.Metrics[name]; !ok {
					t.Errorf("%s/%s: metric %s missing from the emitted document", wl, kind, name)
				}
			}
		}
	}
	var sb strings.Builder
	for _, r := range back.Runs {
		printRun(&sb, r)
	}
	if !compareSets(&sb, &back, &back) {
		t.Errorf("a set compared with itself failed its own bounds:\n%s", sb.String())
	}
}
