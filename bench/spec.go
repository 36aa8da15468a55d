package main

// The benchmark's contract in one place: workload names, metric names,
// units and regression bounds. BENCHMARK.json at the repo root mirrors
// these tables (TestBenchmarkJSONMatchesSpec holds the two together),
// and every run's output is checked against them before it is printed,
// so a renamed metric fails loudly instead of silently dropping out of
// the gate.

// Workload names.
const (
	wlWireBatch    = "wire_batch"
	wlWireBatchWAL = "wire_batch_wal"
	wlOverloadOpen = "overload_open"
	wlClusterEdge  = "cluster_edge"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{wlWireBatch, "closed loop, 64-op frames, no WAL: per-frame cost amortised 64x so admission+telemetry do the work; bypasses wal and cluster"},
	{wlWireBatchWAL, "wire_batch against -data-dir/-fsync async: the only difference is WAL staging, group commit and rotation"},
	{wlOverloadOpen, "open loop, singleton frames, Poisson arrivals, hot routes saturated: wire per-frame cost sets latency; reject and reclaim paths run"},
	{wlClusterEdge, "wire_batch shape driven at one non-authority member of a 3-process cluster: edge lease cells, grants, replication"},
}

// metricSpec is one named metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metrics, reported by every workload with tracing off.
// fail_ratio from ISSUE 11 is carried as its complement ok_ratio: the
// driver divides by the parent's median, and a healthy fail_ratio is 0.
//
// A bound applies to its metric on every workload, so it has to clear
// the noisiest one, with the spread at no more than a third of it. Over
// ten seeds on the 2-vCPU reference box the largest seed-to-seed spread
// (interquartile range over median) of each timed metric is 0.08–0.11
// (README.md, Baseline); with the contract's cap of 0.25 that puts them
// all at the cap and leaves no room for the 5–10 % bounds ISSUE 11
// hoped for. ok_ratio's bound clears cluster_edge, whose
// spurious-reject share wanders by ±2 %.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"admits_per_s", "1/s", "higher", 0.25},
	{"admit_p50_us", "us", "lower", 0.25},
	{"admit_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.08},
}

// Per-layer metrics, reported by every workload's traced run. A layer
// the workload bypasses reports 0.
var perLayer = []metricSpec{
	{Name: "wire.encode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.ping_rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.stub_loop_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.ops_per_backend_call", Unit: "count", Better: "higher"},
	{Name: "wire.frames_per_backend_call", Unit: "count", Better: "higher"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.self_us_per_frame", Unit: "us", Better: "lower"},

	{Name: "admission.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.teardown_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.batch_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "admission.reject_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.fastpath_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "admission.fastpath_stale_ratio", Unit: "ratio", Better: "lower"},
	{Name: "admission.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "admission.backend_self_ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "telemetry.decision_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.sink_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "telemetry.on_off_delta_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.scrape_ms", Unit: "ms", Better: "lower"},

	{Name: "policy.token_bucket_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.slo_gated_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.reserve_headroom_ns", Unit: "ns", Better: "lower"},

	{Name: "wal.journal_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.ops_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wal.fsync_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "wal.sync_commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.recover_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "wal.disk_mb", Unit: "MB", Better: "lower"},

	{Name: "cluster.local_admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.grants_per_kop", Unit: "count", Better: "lower"},
	{Name: "cluster.grant_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.grant_rtt_us_p99", Unit: "us", Better: "lower"},
	{Name: "cluster.replication_lag_bytes_max", Unit: "B", Better: "lower"},
	{Name: "cluster.spurious_reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.authority_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.failover_s", Unit: "s", Better: "lower"},
	{Name: "cluster.fault_reject_ratio", Unit: "ratio", Better: "lower"},

	{Name: "ubacd.http_admit_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "ubacd.http_batch_ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "core.configure_ms", Unit: "ms", Better: "lower"},
	{Name: "routing.select_ms", Unit: "ms", Better: "lower"},
	{Name: "delay.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "delay.iterations", Unit: "count", Better: "lower"},
	{Name: "config.maxutil_s", Unit: "s", Better: "lower"},

	{Name: "loadgen.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.cpu_busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ubacd.cpu_busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.residual_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
}

// runSeconds is the measurement window BENCHMARK.json asks the driver
// for.
const runSeconds = 20

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet builds a result map holding exactly the given specs: a
// value the run did not produce is reported as 0, a value outside the
// table is a programming error.
func metricSet(specs []metricSpec, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	known := make(map[string]bool, len(specs))
	for _, s := range specs {
		known[s.Name] = true
		out[s.Name] = metricValue{Value: vals[s.Name], Unit: s.Unit}
	}
	for name := range vals {
		if !known[name] {
			panic("bench: metric " + name + " is not in the spec table")
		}
	}
	return out
}
