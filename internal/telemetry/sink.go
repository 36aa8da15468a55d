package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Standard metric names exposed by RegistrySink (and scraped off the
// daemon's /metrics endpoint).
const (
	MetricAdmitTotal         = "ubac_admit_total"
	MetricRejectTotal        = "ubac_reject_total" // labeled {reason=...}
	MetricTeardownTotal      = "ubac_teardown_total"
	MetricActiveFlows        = "ubac_active_flows"
	MetricAdmissionLatency   = "ubac_admission_latency_seconds"
	MetricFixedPointIter     = "ubac_fixedpoint_iterations"
	MetricFixedPointRuns     = "ubac_fixedpoint_runs_total" // labeled {converged=...}
	MetricFixedPointDuration = "ubac_fixedpoint_duration_seconds"
	MetricRouteCacheLookups  = "ubac_route_cache_lookups_total" // labeled {result=...}
	MetricRouteSelectSeconds = "ubac_routing_select_seconds"
	MetricRouteCandidates    = "ubac_routing_candidates_total"
	MetricSimGeneratedTotal  = "ubac_sim_packets_generated_total"
	MetricSimDeliveredTotal  = "ubac_sim_packets_delivered_total"
	MetricSimPolicedTotal    = "ubac_sim_packets_policed_total"
	MetricSimLateTotal       = "ubac_sim_packets_late_total"
	MetricClassAdmitTotal    = "ubac_class_admit_total"  // labeled {class=...}
	MetricClassRejectTotal   = "ubac_class_reject_total" // labeled {class=...}
	MetricEventsTotal        = "ubac_events_total"
	MetricWALAppends         = "ubac_wal_appends_total"
	MetricWALFsyncs          = "ubac_wal_fsyncs_total"
	MetricWALSyncSeconds     = "ubac_wal_sync_seconds"
	MetricWALRecoveryTotal   = "ubac_wal_recovery_replayed_total" // labeled {kind=...}
	MetricWireConnsTotal     = "ubac_wire_connections_total"
	MetricWireConnsActive    = "ubac_wire_connections_active"
	MetricWireFramesTotal    = "ubac_wire_frames_total" // labeled {dir=rx|tx}
	MetricWireBytesTotal     = "ubac_wire_bytes_total"  // labeled {dir=rx|tx}
	MetricWireBatchesTotal   = "ubac_wire_coalesced_batches_total"
	MetricWireBatchOpsTotal  = "ubac_wire_coalesced_ops_total"

	MetricClusterAdmitsTotal     = "ubac_cluster_lease_admits_total" // labeled {path=local|sync}
	MetricClusterGrantsTotal     = "ubac_cluster_grants_total"
	MetricClusterGrantSeconds    = "ubac_cluster_grant_seconds"
	MetricClusterLeaseRejects    = "ubac_cluster_lease_rejects_total" // labeled {cause=dry|down}
	MetricClusterReclaims        = "ubac_cluster_reclaims_total"
	MetricClusterReplicationLag  = "ubac_cluster_replication_lag_bytes"
	MetricClusterRoleTransitions = "ubac_cluster_role_transitions_total"
	MetricClusterHeartbeatMisses = "ubac_cluster_heartbeat_misses_total"
)

// RegistrySink records telemetry into a Registry and (optionally) an
// event Ring. All recording is lock-free; the metric fields are
// exported so embedders (the CLI's post-run summary, tests) can read
// them back without parsing the exposition format. The count of
// recorded events is the ring's own (Ring.Total), read at scrape.
type RegistrySink struct {
	Admit               *Counter
	RejectCapacity      *Counter
	RejectNoRoute       *Counter
	RejectUnknownClass  *Counter
	RejectPolicyRate    *Counter
	RejectPolicyShed    *Counter
	RejectPolicyReserve *Counter
	Teardown            *Counter
	ActiveFlows         *Gauge
	AdmissionLatency    *Histogram

	FixedPointIterations *Counter
	FixedPointConverged  *Counter
	FixedPointDiverged   *Counter
	FixedPointDuration   *Histogram

	RouteCacheHits   *Counter
	RouteCacheMisses *Counter

	RouteSelectDuration   *Histogram
	RouteSelectCandidates *Counter

	SimGenerated *Counter
	SimDelivered *Counter
	SimPoliced   *Counter
	SimLate      *Counter

	WALAppends           *Counter
	WALFsyncs            *Counter
	WALSyncDuration      *Histogram
	WALRecoveryAdmits    *Counter
	WALRecoveryTeardowns *Counter

	WireConns       *Counter
	WireConnsActive *Gauge
	WireFramesRx    *Counter
	WireFramesTx    *Counter
	WireBytesRx     *Counter
	WireBytesTx     *Counter
	WireBatches     *Counter
	WireBatchOps    *Counter

	ClusterSyncAdmits      *Counter
	ClusterGrants          *Counter
	ClusterGrantDuration   *Histogram
	ClusterRejectsDry      *Counter
	ClusterRejectsDown     *Counter
	ClusterReclaims        *Counter
	ClusterReplicationLag  *Gauge
	ClusterRoleTransitions *Counter
	ClusterHeartbeatMisses *Counter

	ring *Ring

	// byVerdict indexes the verdict counters above by Verdict.
	byVerdict [numVerdicts]*Counter

	// Per-class decision counters are created lazily — class names are
	// only known at decision time. Each map is copy-on-write behind an
	// atomic pointer, so the steady state (class already registered) is
	// one load and one lookup; classMu serializes the rare registration.
	// Once SetClasses has named the deployment's classes, any other name
	// is counted under UnknownClass and registers nothing.
	reg        *Registry
	classes    map[string]struct{}
	classMu    sync.Mutex
	classAdmit atomic.Pointer[map[string]*Counter]
	classRej   atomic.Pointer[map[string]*Counter]
}

// UnknownClass is the class label that counts decisions whose class
// name is not one of the deployment's (see SetClasses).
const UnknownClass = "unknown"

// SetClasses bounds the per-class label space to the deployment's
// class table: decisions naming any other class — names arrive in
// request bodies — share the one UnknownClass series. Call it once,
// before the sink sees decisions; without it every name gets a series.
func (s *RegistrySink) SetClasses(names []string) {
	s.classes = make(map[string]struct{}, len(names))
	for _, n := range names {
		s.classes[n] = struct{}{}
	}
}

// NewRegistrySink registers the standard ubac_* metrics on reg (eagerly,
// so a scrape shows every family from the first request) and records
// decision events into ring (nil disables the audit trail).
func NewRegistrySink(reg *Registry, ring *Ring) *RegistrySink {
	s := &RegistrySink{
		Admit: reg.Counter(MetricAdmitTotal, "Flows admitted by the utilization test."),
		RejectCapacity: reg.Counter(MetricRejectTotal,
			"Flows rejected, by reason.", Label{"reason", "capacity"}),
		RejectNoRoute: reg.Counter(MetricRejectTotal,
			"Flows rejected, by reason.", Label{"reason", "no_route"}),
		RejectUnknownClass: reg.Counter(MetricRejectTotal,
			"Flows rejected, by reason.", Label{"reason", "unknown_class"}),
		RejectPolicyRate: reg.Counter(MetricRejectTotal,
			"Flows rejected, by reason.", Label{"reason", "policy_token_bucket"}),
		RejectPolicyShed: reg.Counter(MetricRejectTotal,
			"Flows rejected, by reason.", Label{"reason", "policy_shed"}),
		RejectPolicyReserve: reg.Counter(MetricRejectTotal,
			"Flows rejected, by reason.", Label{"reason", "policy_reserve"}),
		Teardown:    reg.Counter(MetricTeardownTotal, "Admitted flows torn down."),
		ActiveFlows: reg.Gauge(MetricActiveFlows, "Currently admitted flows."),
		AdmissionLatency: reg.Histogram(MetricAdmissionLatency,
			"Admission decision wall time (admits and rejects)."),
		FixedPointIterations: reg.Counter(MetricFixedPointIter,
			"Total outer iterations of the delay fixed-point solver."),
		FixedPointConverged: reg.Counter(MetricFixedPointRuns,
			"Fixed-point solver runs, by outcome.", Label{"converged", "true"}),
		FixedPointDiverged: reg.Counter(MetricFixedPointRuns,
			"Fixed-point solver runs, by outcome.", Label{"converged", "false"}),
		FixedPointDuration: reg.Histogram(MetricFixedPointDuration,
			"Delay fixed-point solve wall time."),
		RouteCacheHits: reg.Counter(MetricRouteCacheLookups,
			"Route-delay cache lookups, by result.", Label{"result", "hit"}),
		RouteCacheMisses: reg.Counter(MetricRouteCacheLookups,
			"Route-delay cache lookups, by result.", Label{"result", "miss"}),
		RouteSelectDuration: reg.Histogram(MetricRouteSelectSeconds,
			"Route-selection wall time per selector run."),
		RouteSelectCandidates: reg.Counter(MetricRouteCandidates,
			"Candidate routes considered by route selection (its solves are ubac_fixedpoint_runs_total)."),
		SimGenerated: reg.Counter(MetricSimGeneratedTotal, "Packets generated by the simulator."),
		SimDelivered: reg.Counter(MetricSimDeliveredTotal, "Packets delivered by the simulator."),
		SimPoliced:   reg.Counter(MetricSimPolicedTotal, "Packets dropped by edge policing in the simulator."),
		SimLate:      reg.Counter(MetricSimLateTotal, "Simulated packets that missed their deadline."),
		WALAppends: reg.Counter(MetricWALAppends,
			"Admission records staged for the write-ahead log."),
		WALFsyncs: reg.Counter(MetricWALFsyncs,
			"WAL group commits (one write+fsync each)."),
		WALSyncDuration: reg.Histogram(MetricWALSyncSeconds,
			"WAL group commit wall time (write+fsync)."),
		WALRecoveryAdmits: reg.Counter(MetricWALRecoveryTotal,
			"Records replayed from the WAL on boot, by kind.", Label{"kind", "admit"}),
		WALRecoveryTeardowns: reg.Counter(MetricWALRecoveryTotal,
			"Records replayed from the WAL on boot, by kind.", Label{"kind", "teardown"}),
		WireConns: reg.Counter(MetricWireConnsTotal,
			"Wire-transport connections accepted."),
		WireConnsActive: reg.Gauge(MetricWireConnsActive,
			"Wire-transport connections currently open."),
		WireFramesRx: reg.Counter(MetricWireFramesTotal,
			"Wire-transport frames, by direction.", Label{"dir", "rx"}),
		WireFramesTx: reg.Counter(MetricWireFramesTotal,
			"Wire-transport frames, by direction.", Label{"dir", "tx"}),
		WireBytesRx: reg.Counter(MetricWireBytesTotal,
			"Wire-transport payload bytes, by direction.", Label{"dir", "rx"}),
		WireBytesTx: reg.Counter(MetricWireBytesTotal,
			"Wire-transport payload bytes, by direction.", Label{"dir", "tx"}),
		WireBatches: reg.Counter(MetricWireBatchesTotal,
			"Coalesced admission batch calls made by the wire transport."),
		WireBatchOps: reg.Counter(MetricWireBatchOpsTotal,
			"Operations drained into coalesced wire batch calls (ops/batches = mean coalesce depth)."),
		ClusterSyncAdmits: reg.Counter(MetricClusterAdmitsTotal,
			"Cluster edge admissions, by path (local = answered from the leased budget with zero cross-node round trips).",
			Label{"path", "sync"}),
		ClusterGrants: reg.Counter(MetricClusterGrantsTotal,
			"Lease grants issued by the authority (local and remote edges)."),
		ClusterGrantDuration: reg.Histogram(MetricClusterGrantSeconds,
			"Lease grant round-trip wall time observed by the requesting edge."),
		ClusterRejectsDry: reg.Counter(MetricClusterLeaseRejects,
			"Cluster edge admits refused on lease state, by cause (dry = the authority had nothing to grant, down = the authority was unreachable).",
			Label{"cause", "dry"}),
		ClusterRejectsDown: reg.Counter(MetricClusterLeaseRejects,
			"Cluster edge admits refused on lease state, by cause (dry = the authority had nothing to grant, down = the authority was unreachable).",
			Label{"cause", "down"}),
		ClusterReclaims: reg.Counter(MetricClusterReclaims,
			"Times a dry lease cell took back the untouched budget of the cells sharing its servers before asking again."),
		ClusterReplicationLag: reg.Gauge(MetricClusterReplicationLag,
			"Bytes of durable authority WAL not yet fetched by this follower."),
		ClusterRoleTransitions: reg.Counter(MetricClusterRoleTransitions,
			"Cluster role changes on this node (follower promotions, authority discoveries)."),
		ClusterHeartbeatMisses: reg.Counter(MetricClusterHeartbeatMisses,
			"Heartbeat probes that failed or timed out."),
		ring: ring,
		reg:  reg,
	}
	s.byVerdict = [numVerdicts]*Counter{
		Admitted:              s.Admit,
		RejectedCapacity:      s.RejectCapacity,
		RejectedNoRoute:       s.RejectNoRoute,
		RejectedUnknownClass:  s.RejectUnknownClass,
		TornDown:              s.Teardown,
		RejectedPolicyRate:    s.RejectPolicyRate,
		RejectedPolicyShed:    s.RejectPolicyShed,
		RejectedPolicyReserve: s.RejectPolicyReserve,
	}
	s.classAdmit.Store(new(map[string]*Counter))
	s.classRej.Store(new(map[string]*Counter))
	reg.CounterFunc(MetricEventsTotal, "Decision events recorded (ring overwrites oldest).",
		func() uint64 {
			if ring == nil {
				return 0
			}
			return ring.Total()
		})
	return s
}

// classCounter returns the per-class counter for metric (admit or
// reject), creating and registering it on first use of the class name.
func (s *RegistrySink) classCounter(cache *atomic.Pointer[map[string]*Counter], metric, help, class string) *Counter {
	if c := (*cache.Load())[class]; c != nil {
		return c
	}
	if s.classes != nil {
		if _, known := s.classes[class]; !known {
			class = UnknownClass
			if c := (*cache.Load())[class]; c != nil {
				return c
			}
		}
	}
	s.classMu.Lock()
	defer s.classMu.Unlock()
	old := *cache.Load()
	if c := old[class]; c != nil {
		return c
	}
	c := s.reg.Counter(metric, help, Label{"class", class})
	next := make(map[string]*Counter, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[class] = c
	cache.Store(&next)
	return c
}

// addClass publishes one class's share of a run's admits and rejects.
func (s *RegistrySink) addClass(class string, admits, rejects uint64) {
	if class == "" {
		return
	}
	if admits > 0 {
		s.classCounter(&s.classAdmit, MetricClassAdmitTotal,
			"Flows admitted, by traffic class.", class).Add(admits)
	}
	if rejects > 0 {
		s.classCounter(&s.classRej, MetricClassRejectTotal,
			"Flows rejected, by traffic class.", class).Add(rejects)
	}
}

// ClassAdmits returns the cumulative admit count for class (0 if the
// class has never been admitted) — a test and summary hook.
func (s *RegistrySink) ClassAdmits(class string) uint64 {
	if c := (*s.classAdmit.Load())[class]; c != nil {
		return c.Value()
	}
	return 0
}

// ClassRejects returns the cumulative reject count for class.
func (s *RegistrySink) ClassRejects(class string) uint64 {
	if c := (*s.classRej.Load())[class]; c != nil {
		return c.Value()
	}
	return 0
}

// WALAppend satisfies the wal package's Observer interface (records
// staged for durability).
func (s *RegistrySink) WALAppend(records, bytes int) {
	s.WALAppends.Add(uint64(records))
}

// WALSync satisfies the wal Observer interface (one group commit).
func (s *RegistrySink) WALSync(d time.Duration) {
	s.WALFsyncs.Inc()
	s.WALSyncDuration.Observe(d)
}

// WireConnOpened satisfies the wire package's Observer interface
// (one transport connection accepted).
func (s *RegistrySink) WireConnOpened() {
	s.WireConns.Inc()
	s.WireConnsActive.Add(1)
}

// WireConnClosed satisfies the wire Observer interface.
func (s *RegistrySink) WireConnClosed() { s.WireConnsActive.Add(-1) }

// WireRead satisfies the wire Observer interface (one read pass:
// decoded frames and consumed bytes).
func (s *RegistrySink) WireRead(frames, bytes int) {
	s.WireFramesRx.Add(uint64(frames))
	s.WireBytesRx.Add(uint64(bytes))
}

// WireWrite satisfies the wire Observer interface (responses flushed).
func (s *RegistrySink) WireWrite(frames, bytes int) {
	s.WireFramesTx.Add(uint64(frames))
	s.WireBytesTx.Add(uint64(bytes))
}

// WireCoalesce satisfies the wire Observer interface (one coalesced
// batch call draining `frames` pipelined frames carrying `ops`
// operations).
func (s *RegistrySink) WireCoalesce(frames, ops int) {
	s.WireBatches.Inc()
	s.WireBatchOps.Add(uint64(ops))
}

// ClusterAdmitSync satisfies the cluster package's Observer interface:
// n admissions that had to make a synchronous grant round trip. The
// local path's count is the member controller's fast-path hits, which
// the daemon registers under the same family.
func (s *RegistrySink) ClusterAdmitSync(n int) { s.ClusterSyncAdmits.Add(uint64(n)) }

// ClusterGrant satisfies the cluster Observer interface: one lease
// grant round trip and its wall time.
func (s *RegistrySink) ClusterGrant(d time.Duration) {
	s.ClusterGrants.Inc()
	s.ClusterGrantDuration.Observe(d)
}

// ClusterLeaseReject satisfies the cluster Observer interface: n
// admits refused on lease state; any cause but "down" counts as dry.
func (s *RegistrySink) ClusterLeaseReject(cause string, n int) {
	if cause == "down" {
		s.ClusterRejectsDown.Add(uint64(n))
		return
	}
	s.ClusterRejectsDry.Add(uint64(n))
}

// ClusterReclaim satisfies the cluster Observer interface: one sibling
// reclaim by a dry cell.
func (s *RegistrySink) ClusterReclaim() { s.ClusterReclaims.Inc() }

// ClusterLag satisfies the cluster Observer interface: this follower's
// current replication lag in bytes.
func (s *RegistrySink) ClusterLag(bytes int64) { s.ClusterReplicationLag.Set(bytes) }

// ClusterRoleChange satisfies the cluster Observer interface.
func (s *RegistrySink) ClusterRoleChange() { s.ClusterRoleTransitions.Inc() }

// ClusterHeartbeatMiss satisfies the cluster Observer interface.
func (s *RegistrySink) ClusterHeartbeatMiss() { s.ClusterHeartbeatMisses.Inc() }

// WALRecovered records a boot-time recovery: its replay counts, and
// the flows it left active, which the active-flows gauge takes as its
// starting point (recovered flows produce no Admitted decision, and
// their teardowns would otherwise drive the gauge negative).
func (s *RegistrySink) WALRecovered(admits, teardowns uint64, active int64) {
	s.WALRecoveryAdmits.Add(admits)
	s.WALRecoveryTeardowns.Add(teardowns)
	s.ActiveFlows.Set(active)
}

// Ring returns the sink's event ring (nil when the audit trail is off).
func (s *RegistrySink) Ring() *Ring { return s.ring }

// Decision implements Sink: a run of one.
func (s *RegistrySink) Decision(d Decision) {
	run := [1]Decision{d}
	s.DecisionRun(run[:])
}

// DecisionRun implements Sink, and is the one place decisions are
// recorded. It tallies the run's verdicts and classes in locals and
// publishes each shared word once: one add per verdict counter the run
// touched, one gauge move, one histogram observation of weight n (the
// run shares run[0]'s Latency, observed for admits and rejects), one
// add per class, and one ring ticket fetch for all n audit events
// (stamped run[0].When, or now when that is zero). What a scrape or
// /v1/events shows afterwards is what n calls of Decision would have
// left.
func (s *RegistrySink) DecisionRun(run []Decision) {
	if len(run) == 0 {
		return
	}
	var tally [numVerdicts]uint64
	class := run[0].Class
	var classAdmits, classRejects uint64
	for i := range run {
		d := &run[i]
		if d.Verdict >= numVerdicts {
			continue
		}
		tally[d.Verdict]++
		if d.Verdict == TornDown {
			continue
		}
		if d.Class != class {
			s.addClass(class, classAdmits, classRejects)
			class, classAdmits, classRejects = d.Class, 0, 0
		}
		if d.Verdict == Admitted {
			classAdmits++
		} else {
			classRejects++
		}
	}
	s.addClass(class, classAdmits, classRejects)

	var timed uint64
	for v, n := range tally {
		if n == 0 {
			continue
		}
		s.byVerdict[v].Add(n)
		if Verdict(v) != TornDown {
			timed += n
		}
	}
	if move := int64(tally[Admitted]) - int64(tally[TornDown]); move != 0 {
		s.ActiveFlows.Add(move)
	}
	latency := run[0].Latency
	s.AdmissionLatency.ObserveN(latency, timed)

	if s.ring == nil {
		return
	}
	when := run[0].When
	if when.IsZero() {
		when = time.Now()
	}
	whenNS, latencyNS := when.UnixNano(), latency.Nanoseconds()
	s.ring.appendRun(len(run), func(i int, slot *record) {
		d := &run[i]
		// Field by field, and every field, since the slot still holds its
		// last record: a composite literal is built on the stack and copied
		// in, which costs a run of 64 about half again per decision.
		slot.TimeUnixNano = whenNS
		slot.FlowID = d.FlowID
		slot.Class = d.Class
		slot.Tenant = d.Tenant
		slot.RateBPS = d.Rate
		slot.LatencyNS = latencyNS
		slot.Src = int32(d.Src)
		slot.Dst = int32(d.Dst)
		slot.Bottleneck = int32(d.Bottleneck)
		slot.Verdict = d.Verdict
	})
}

// FixedPoint implements Sink.
func (s *RegistrySink) FixedPoint(fp FixedPoint) {
	s.FixedPointIterations.Add(uint64(fp.Iterations))
	if fp.Converged {
		s.FixedPointConverged.Inc()
	} else {
		s.FixedPointDiverged.Inc()
	}
	s.FixedPointDuration.Observe(fp.Elapsed)
}

// RouteSelect implements Sink.
func (s *RegistrySink) RouteSelect(rs RouteSelect) {
	s.RouteSelectDuration.Observe(rs.Elapsed)
	if rs.Candidates > 0 {
		s.RouteSelectCandidates.Add(uint64(rs.Candidates))
	}
}

// RouteCache implements Sink.
func (s *RegistrySink) RouteCache(rc RouteCache) {
	if rc.Hits > 0 {
		s.RouteCacheHits.Add(rc.Hits)
	}
	if rc.Misses > 0 {
		s.RouteCacheMisses.Add(rc.Misses)
	}
}

// SimRun implements Sink.
func (s *RegistrySink) SimRun(r SimRun) {
	s.SimGenerated.Add(r.Generated)
	s.SimDelivered.Add(r.Delivered)
	s.SimPoliced.Add(r.Policed)
	s.SimLate.Add(r.Late)
}
