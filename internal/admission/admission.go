// Package admission implements the paper's run-time admission control
// (Section 4, component 2). After configuration has established a safe
// per-class utilization assignment α_i and a route for every
// (class, src, dst), admitting a flow reduces to a utilization test on
// the link servers along its route: the flow of rate ρ_i is admitted iff
// every server still has ρ_i of its reserved α_i·C left. The test is
// O(path length) and needs no per-flow state in the core — this is the
// scalability property the paper is built around.
//
// The bandwidth ledger is one lock-free compare-and-swap counter per
// (class, server); BenchmarkAdmissionContention drives it at 1/4/16
// goroutines on shared and disjoint routes. Flow identity lives in a
// sharded slot registry (see registry.go) that recycles slots through
// per-shard free lists, so it stays as large as the peak number of
// concurrent flows: the admit/teardown fast path takes no lock,
// allocates nothing in steady state, and AdmitBatch/TeardownBatch
// amortize registry, counter and telemetry traffic over whole batches.
package admission

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ubac/internal/policy"
	"ubac/internal/routes"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// Sentinel errors returned by Admit and Teardown.
var (
	// ErrNoRoute means the configuration has no route for the requested
	// (class, src, dst).
	ErrNoRoute = errors.New("admission: no configured route")
	// ErrCapacity means some server on the route lacks headroom.
	ErrCapacity = errors.New("admission: insufficient capacity along route")
	// ErrUnknownFlow means the flow ID is not active.
	ErrUnknownFlow = errors.New("admission: unknown flow")
	// ErrUnknownClass means the class name is not configured.
	ErrUnknownClass = errors.New("admission: unknown class")
	// ErrNoDelayBounds means no verified delay vector has been installed
	// for the class (SetDelayBounds was never called).
	ErrNoDelayBounds = errors.New("admission: no delay bounds installed")
	// ErrTooManyFlows means the registry ran out of slot space (2^18
	// concurrent flows per shard, 2^24 in all); nothing was reserved.
	ErrTooManyFlows = errors.New("admission: too many active flows")
	// ErrShuttingDown means the durability journal has been closed (the
	// daemon is draining): an Admit returning it reserved nothing; a
	// Teardown returning it took effect in memory but was not recorded
	// durably, so the flow may reappear after recovery and the caller
	// should retry the teardown then. The daemon maps it to HTTP 503.
	ErrShuttingDown = errors.New("admission: shutting down")
	// ErrPolicyRate means the installed admission policy's token bucket
	// had no tokens for the tenant; nothing was reserved. The daemon
	// maps it to HTTP 429.
	ErrPolicyRate = errors.New("admission: policy rate limit exceeded")
	// ErrPolicyShed means the installed SLO gate shed the flow under
	// cluster load; nothing was reserved. HTTP 429.
	ErrPolicyShed = errors.New("admission: policy shed under load")
	// ErrPolicyReserve means admitting would eat into the capacity
	// reserve the installed policy holds for protected traffic; nothing
	// was reserved. HTTP 503 (a capacity condition).
	ErrPolicyReserve = errors.New("admission: policy capacity reserve")
)

// LedgerKind names the bandwidth accounting implementation. There is
// one: the lock-free ledger. The type stays so NewController and
// core.Deployment.Controller keep their signatures.
type LedgerKind int

// AtomicLedger uses lock-free compare-and-swap counters.
const AtomicLedger LedgerKind = 0

// atomicLedger tracks reserved bandwidth per (server, class) in
// microbits/s. The mutating methods return the resulting counter value
// so the controller's band-epoch wrappers (ledReserve/ledRelease in
// headroom.go) can detect band crossings without a second read.
type atomicLedger struct {
	used []atomic.Int64
}

// tryReserve atomically adds rate if the result stays within limit,
// returning the new value on success.
func (l *atomicLedger) tryReserve(idx int, rate, limit int64) (int64, bool) {
	for {
		cur := l.used[idx].Load()
		if cur+rate > limit {
			return 0, false
		}
		if l.used[idx].CompareAndSwap(cur, cur+rate) {
			return cur + rate, true
		}
	}
}

// release subtracts rate and returns the new value.
func (l *atomicLedger) release(idx int, rate int64) int64 {
	return l.used[idx].Add(-rate)
}

// inUse reads the current reservation.
func (l *atomicLedger) inUse(idx int) int64 {
	return l.used[idx].Load()
}

// microbit converts bits/s to the ledger's integer microbits/s unit.
func microbit(bps float64) int64 { return int64(bps * 1e6) }

// ClassConfig binds one configured class to its utilization assignment
// and route set (the outputs of the configuration module).
type ClassConfig struct {
	Class  traffic.Class
	Alpha  float64
	Routes *routes.Set
}

// FlowID identifies an admitted flow.
type FlowID uint64

// Journal is the durability hook: a write-ahead log that records every
// admit and teardown after it has taken effect in memory but before
// Admit/Teardown return. *wal.Log satisfies it structurally — the
// methods use only builtin types so admission does not import wal. In
// sync mode an Append call returns only after the record is fsynced; in
// async mode it returns once the record is staged for the next group
// commit. Any Append error is treated as the journal shutting down or
// failed: the admit is unwound and surfaced as ErrShuttingDown.
type Journal interface {
	AppendAdmit(id, seq uint64, class, route int32) error
	AppendAdmitBatch(ids []uint64, seqBase uint64, classes, routes []int32) error
	AppendTeardown(id uint64) error
	AppendTeardownBatch(ids []uint64) error
}

// Stats are cumulative controller counters.
type Stats struct {
	Admitted uint64
	Rejected uint64
	// RejectedPolicy counts flows refused by the installed admission
	// policy before the utilization test ran (also included in
	// Rejected).
	RejectedPolicy uint64
	TornDown       uint64
	NoRoute        uint64
	Active         int64
	MaxActive      int64
	// RegistrySlots is the flow registry's footprint: slots allocated,
	// live or free. It follows the peak of Active, never Admitted.
	RegistrySlots int64 `json:"registry_slots"`
}

// Controller is the run-time admission control module. All methods are
// safe for concurrent use.
type Controller struct {
	net     *topology.Network
	classes []ClassConfig
	byName  map[string]int
	nsrv    int // cached net.NumServers()

	// routeOf[class][src*R+dst] is the configured route index, -1 if
	// absent.
	routeOf [][]int32

	led    atomicLedger
	limits [][]int64 // [class][server] reserved microbits/s
	rates  []int64   // [class] per-flow rate, microbits/s
	// paths[class][route] is the route's server index slice, resolved
	// once at construction so the admit fast path never touches the
	// route set.
	paths [][][]int

	// delayMu guards the verified per-server delay vectors; the caches
	// handle their own synchronization. Both are populated lazily by
	// SetDelayBounds (typically from core.Deployment.Controller).
	delayMu    sync.RWMutex
	delayD     [][]float64          // [class] verified per-server bounds, seconds
	delayCache []*routes.DelayCache // [class] epoch-keyed route-sum cache

	// reg is the sharded flow registry (registry.go); it replaces the
	// seed's global mutex around a map[FlowID]flowRecord.
	reg *flowRegistry

	// Headroom plane (headroom.go): per-(class, route) admission budgets
	// plus the banded-invalidation epochs behind the cached read paths.
	// fastOn is the SetFastPath master switch; fastOK additionally
	// requires no NeedFill policy. Both are read unsynchronized on the
	// hot path — configure before serving traffic.
	plane     []classPlane
	bandEpoch []atomic.Uint32 // [class*nsrv+server] band-crossing epoch
	bandShift []uint8         // [class*nsrv+server] log2 band width
	fastOn    bool
	fastOK    bool
	// lease, when installed (SetLeaseSource, cluster.go), supplies every
	// admitted flow's capacity in place of the ledger; nodeBits are the
	// cluster member's bits in every ID this controller issues.
	lease    LeaseSource
	nodeBits FlowID
	// Fast-path outcome counters (see FastPathStats): stale = admits
	// that went through a refill, fb* = exact-walk verdicts.
	staleAdmits, fbAdmits, fbRejects atomic.Uint64
	// recoveredAdmits is the admitted counter restored by
	// FinishRecovery; replayed admits predate the plane's counters.
	recoveredAdmits uint64
	// hint caches the last classIndex lookup; hintArr holds the
	// preallocated (name, index) pairs it points into.
	hintArr []classHint
	hint    atomic.Pointer[classHint]

	// Two counters are derived instead of maintained, removing three
	// atomic adds from the admit/teardown cycle: Admitted is the
	// admission cursor minus the registry's gap counter (cursor ticks
	// that never became an admit: registry exhaustion, journal unwinds,
	// failed batch registration, sequences skipped for their zero low
	// word — all cold paths), and Active is admitted − tornDown (every
	// unwind path increments neither). Both are exact whenever the
	// controller is quiescent and within the in-flight window otherwise.
	rejected, tornDown, noRoute atomic.Uint64
	policyRejected              atomic.Uint64
	maxActive                   atomic.Int64

	// policy, when non-nil, is consulted before the utilization test on
	// every admit; a deny refuses the flow with nothing reserved and
	// nothing journaled. AlwaysAdmit is stripped to nil by SetPolicy so
	// the default deployment pays exactly one nil-check branch, the same
	// contract as journal and sink. policyFill caches the policy's
	// NeedFill declaration so the O(path) fill computation is skipped
	// for policies that never read it.
	policy     policy.Policy
	policyFill bool

	// sink receives per-decision telemetry; telemetered gates the
	// timestamping and event construction so the default Nop sink costs
	// one branch on the hot path.
	sink        telemetry.Sink
	telemetered bool

	// journal, when non-nil, receives every admit and teardown for
	// durable replay. Like sink it is read without synchronization on
	// the hot path: install it before serving traffic. The nil default
	// costs one branch per decision, preserving the zero-alloc fast
	// path when durability is off.
	journal Journal

	// now supplies decision timestamps (telemetry latency and audit
	// events). Defaults to time.Now; SetClock swaps in a virtual clock
	// so deterministic harnesses — the discrete-event simulator — get
	// reproducible timestamps from the same admit path production runs
	// use.
	now func() time.Time

	// restoring marks the recovery window (between RestoreSnapshot /
	// the first Replay call and FinishRecovery); guards against replay
	// into a live controller.
	restoring *restoreState
}

// NewController validates the configuration and builds a controller.
// Every class must carry a route set over net; routes for missing pairs
// simply make those pairs unadmittable (ErrNoRoute).
func NewController(net *topology.Network, classes []ClassConfig, _ LedgerKind) (*Controller, error) {
	if net == nil {
		return nil, fmt.Errorf("admission: nil network")
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("admission: no classes")
	}
	if len(classes) > slotClassMask {
		// The flow registry packs the class index into 7 bits of the
		// slot state word.
		return nil, fmt.Errorf("admission: %d classes exceeds the %d limit", len(classes), slotClassMask)
	}
	c := &Controller{
		net:     net,
		classes: append([]ClassConfig(nil), classes...),
		byName:  make(map[string]int, len(classes)),
		reg:     newFlowRegistry(),
		sink:    telemetry.Nop{},
		now:     time.Now,
	}
	nsrv := net.NumServers()
	nrt := net.NumRouters()
	c.led.used = make([]atomic.Int64, len(classes)*nsrv)
	for i, cc := range c.classes {
		if err := cc.Class.Validate(); err != nil {
			return nil, err
		}
		if !(cc.Alpha > 0 && cc.Alpha < 1) {
			return nil, fmt.Errorf("admission: class %q alpha %g out of (0,1)", cc.Class.Name, cc.Alpha)
		}
		if cc.Routes == nil || cc.Routes.Network() != net {
			return nil, fmt.Errorf("admission: class %q routes missing or foreign", cc.Class.Name)
		}
		if _, dup := c.byName[cc.Class.Name]; dup {
			return nil, fmt.Errorf("admission: duplicate class %q", cc.Class.Name)
		}
		c.byName[cc.Class.Name] = i

		limits := make([]int64, nsrv)
		for s := 0; s < nsrv; s++ {
			limits[s] = microbit(cc.Alpha * net.ServerCapacity(s))
		}
		c.limits = append(c.limits, limits)
		c.rates = append(c.rates, microbit(cc.Class.Bucket.Rate))

		if cc.Routes.Len() > slotRouteMask {
			// Route indexes share the slot state word (24 bits).
			return nil, fmt.Errorf("admission: class %q has %d routes, limit %d", cc.Class.Name, cc.Routes.Len(), slotRouteMask)
		}
		table := make([]int32, nrt*nrt)
		for j := range table {
			table[j] = -1
		}
		paths := make([][]int, cc.Routes.Len())
		for r := 0; r < cc.Routes.Len(); r++ {
			rt := cc.Routes.Route(r)
			table[rt.Src*nrt+rt.Dst] = int32(r)
			paths[r] = rt.Servers
		}
		c.routeOf = append(c.routeOf, table)
		c.paths = append(c.paths, paths)
	}
	c.delayD = make([][]float64, len(c.classes))
	c.delayCache = make([]*routes.DelayCache, len(c.classes))
	for i, cc := range c.classes {
		c.delayCache[i] = routes.NewDelayCache(cc.Routes)
	}
	c.nsrv = nsrv
	c.buildPlane()
	c.fastOn = true
	c.updateFastOK()
	return c, nil
}

// SetDelayBounds installs the verified per-server delay vector of one
// class (the configuration-time fixed-point solution) so RouteDelay can
// answer end-to-end bound queries. Installing a new vector bumps the
// class's route-delay cache epoch: a reconfiguration — new utilization
// assignment or changed topology — re-solves the fixed point and must
// come through here, which is exactly when the cached sums go stale.
func (c *Controller) SetDelayBounds(class string, d []float64) error {
	ci, ok := c.byName[class]
	if !ok {
		return ErrUnknownClass
	}
	if len(d) != c.net.NumServers() {
		return fmt.Errorf("admission: delay vector length %d, want %d", len(d), c.net.NumServers())
	}
	c.delayMu.Lock()
	c.delayD[ci] = append([]float64(nil), d...)
	c.delayMu.Unlock()
	c.delayCache[ci].Invalidate()
	return nil
}

// RouteDelay returns the verified worst-case end-to-end queueing delay
// bound of the configured route of (class, src, dst), served from the
// per-class route-delay cache (hit/miss counters flow to the telemetry
// sink). ErrNoDelayBounds is returned until SetDelayBounds has
// installed the class's solved vector.
func (c *Controller) RouteDelay(class string, src, dst int) (float64, error) {
	ci, ok := c.byName[class]
	if !ok {
		return 0, ErrUnknownClass
	}
	ri := c.routeIndex(ci, src, dst)
	if ri < 0 {
		return 0, ErrNoRoute
	}
	c.delayMu.RLock()
	d := c.delayD[ci]
	c.delayMu.RUnlock()
	if d == nil {
		return 0, ErrNoDelayBounds
	}
	return c.delayCache[ci].RouteDelay(int(ri), d)
}

// routeIndex resolves the configured route of (src, dst) for class ci,
// -1 if the pair is unroutable. Every pair-taking query funnels
// through here so Admit, RouteDelay and Headroom agree on what
// ErrNoRoute means: out-of-range router, self-pair, or no configured
// route.
func (c *Controller) routeIndex(ci, src, dst int) int32 {
	nrt := c.net.NumRouters()
	if src < 0 || src >= nrt || dst < 0 || dst >= nrt || src == dst {
		return -1
	}
	return c.routeOf[ci][src*nrt+dst]
}

// RouteDelays returns the cached per-route end-to-end bounds of the
// named class, parallel to its route set's indexes. The slice is shared
// with the cache — callers must not modify it.
func (c *Controller) RouteDelays(class string) ([]float64, error) {
	ci, ok := c.byName[class]
	if !ok {
		return nil, ErrUnknownClass
	}
	c.delayMu.RLock()
	d := c.delayD[ci]
	c.delayMu.RUnlock()
	if d == nil {
		return nil, ErrNoDelayBounds
	}
	return c.delayCache[ci].Delays(d), nil
}

// DelayCacheStats sums hit and miss counts across the per-class
// route-delay caches.
func (c *Controller) DelayCacheStats() (hits, misses uint64) {
	for _, dc := range c.delayCache {
		h, m := dc.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// SetSink routes per-decision telemetry into s (nil restores the no-op
// default). Set it before the controller serves concurrent traffic; the
// field is read without synchronization on the hot path.
func (c *Controller) SetSink(s telemetry.Sink) {
	if s == nil {
		s = telemetry.Nop{}
	}
	c.sink = s
	c.telemetered = telemetry.Active(s)
	for _, dc := range c.delayCache {
		dc.SetSink(s)
	}
}

// SetJournal installs the durability journal (nil turns durability
// off). Like SetSink it must be called before the controller serves
// concurrent traffic; the field is read without synchronization on the
// hot path. Typically called right after recovery, with the same
// *wal.Log that replayed the durable state.
func (c *Controller) SetJournal(j Journal) { c.journal = j }

// SetClock installs the controller's time source for decision
// timestamps (nil restores time.Now). Deterministic harnesses install
// a virtual clock before replaying traffic so telemetry latencies and
// audit timestamps are functions of the schedule, not the wall clock.
// Like SetSink it must be called before the controller serves
// concurrent traffic; the field is read without synchronization on the
// hot path.
func (c *Controller) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	c.now = now
}

// SetPolicy installs the admission policy consulted before the
// utilization test (nil or policy.AlwaysAdmit restores the paper's
// behavior). A policy can only refuse flows the utilization test would
// have accepted — never admit flows it would have refused — so the
// delay guarantees are unaffected. Policy refusals reserve nothing and
// are never journaled: the WAL records admitted state, and replay
// bypasses the policy entirely. Like SetSink and SetJournal this must
// be called before the controller serves concurrent traffic.
func (c *Controller) SetPolicy(p policy.Policy) {
	if _, always := p.(policy.AlwaysAdmit); always || p == nil {
		// Strip AlwaysAdmit to the nil fast path: the default
		// deployment is bit-for-bit the pre-policy controller.
		c.policy = nil
		c.policyFill = false
		c.updateFastOK()
		return
	}
	c.policy = p
	c.policyFill = p.Needs()&policy.NeedFill != 0
	c.updateFastOK()
}

// Policy returns the installed admission policy (nil means
// always-admit).
func (c *Controller) Policy() policy.Policy { return c.policy }

// policyOutcome maps a deny verdict to its telemetry verdict and
// sentinel error.
func policyOutcome(v policy.Verdict) (telemetry.Verdict, error) {
	switch v {
	case policy.DenyRate:
		return telemetry.RejectedPolicyRate, ErrPolicyRate
	case policy.DenyShed:
		return telemetry.RejectedPolicyShed, ErrPolicyShed
	default:
		return telemetry.RejectedPolicyReserve, ErrPolicyReserve
	}
}

// fillAfter returns the worst per-server fill fraction along route ri
// of class ci if one more flow were admitted: max over hops of
// (reserved + rate) / (alpha · capacity). Computed only for policies
// that declare NeedFill. The walked figure is cached per route and
// keyed on the sum of the member servers' band epochs: while no hop
// has crossed a band edge (~1/32 of its limit) the cached figure is
// returned without touching the ledger, keeping NeedFill policy
// decisions O(path) only on band crossings. NeedFill disables leasing
// (see updateFastOK), so the raw ledger here is the exact reservation.
func (c *Controller) fillAfter(ci int, ri int32) float64 {
	e := &c.plane[ci].entries[ri]
	base := ci * c.nsrv
	var stamp uint64
	for _, s := range c.paths[ci][ri] {
		stamp += uint64(c.bandEpoch[base+s].Load())
	}
	if s1 := e.fillStamp.Load(); s1 == stamp {
		f := math.Float64frombits(e.fillBits.Load())
		if e.fillStamp.Load() == s1 {
			return f
		}
	}
	rate := c.rates[ci]
	worst := 0.0
	for _, s := range c.paths[ci][ri] {
		lim := c.limits[ci][s]
		if lim <= 0 {
			return 1
		}
		if f := float64(c.led.inUse(base+s)+rate) / float64(lim); f > worst {
			worst = f
		}
	}
	// Publish bits before stamp under the entry lock so a torn pair can
	// only be seen as stale (readers re-check the stamp around bits).
	e.mu.Lock()
	e.fillBits.Store(math.Float64bits(worst))
	e.fillStamp.Store(stamp)
	e.mu.Unlock()
	return worst
}

// MaxUtilization returns the worst fill fraction over every
// (class, server) reservation pool — the cluster-load signal the
// SLO-gated policy consumes, typically wrapped in a
// policy.SampledLoad so the O(classes × servers) scan runs at most
// once per sampling interval.
func (c *Controller) MaxUtilization() float64 {
	worst := 0.0
	for ci := range c.classes {
		for s := 0; s < c.nsrv; s++ {
			lim := c.limits[ci][s]
			if lim <= 0 {
				continue
			}
			if f := float64(c.usedMicro(ci, s)) / float64(lim); f > worst {
				worst = f
			}
		}
	}
	return worst
}

// emit reports one decision to the sink. Callers guard on c.telemetered
// so the no-op configuration pays nothing.
func (c *Controller) emit(id FlowID, class, tenant string, src, dst int, rate float64,
	v telemetry.Verdict, bottleneck int, start time.Time) {
	end := c.now()
	c.sink.Decision(telemetry.Decision{
		FlowID:     uint64(id),
		Class:      class,
		Tenant:     tenant,
		Src:        src,
		Dst:        dst,
		Rate:       rate,
		Verdict:    v,
		Bottleneck: bottleneck,
		Latency:    end.Sub(start),
		When:       end,
	})
}

// Admit runs the utilization test along the configured route of
// (class, src, dst) and, on success, reserves the flow's rate on every
// server and returns its flow ID. On failure nothing is reserved.
func (c *Controller) Admit(class string, src, dst int) (FlowID, error) {
	return c.admit(class, "", src, dst)
}

// AdmitWithTenant is Admit carrying a tenant identity for the
// installed admission policy (token buckets key on it; SLO tiers may
// map it) and for telemetry. With no policy installed the tenant only
// labels the audit event.
func (c *Controller) AdmitWithTenant(class, tenant string, src, dst int) (FlowID, error) {
	return c.admit(class, tenant, src, dst)
}

// admit is the one singleton path. With no sink and no policy the
// telemetry (timestamps, decision events) and the policy consult each
// cost one branch — the same contract as journal.
func (c *Controller) admit(class, tenant string, src, dst int) (FlowID, error) {
	var start time.Time
	if c.telemetered {
		start = c.now()
	}
	ci, ok := c.classIndex(class)
	if !ok {
		if c.telemetered {
			c.emit(0, class, tenant, src, dst, 0, telemetry.RejectedUnknownClass, -1, start)
		}
		return 0, ErrUnknownClass
	}
	rateBPS := c.classes[ci].Class.Bucket.Rate
	ri := c.routeIndex(ci, src, dst)
	if ri < 0 {
		c.noRoute.Add(1)
		if c.telemetered {
			c.emit(0, class, tenant, src, dst, rateBPS, telemetry.RejectedNoRoute, -1, start)
		}
		return 0, ErrNoRoute
	}
	if p := c.policy; p != nil {
		dctx := policy.DecisionContext{
			Class: class, Tenant: tenant, Src: src, Dst: dst, Rate: rateBPS,
		}
		if c.policyFill {
			dctx.FillAfter = c.fillAfter(ci, ri)
		}
		if v := p.Decide(dctx); v != policy.Allow {
			// Policy refusal: nothing reserved, nothing journaled — the
			// WAL records admitted state only.
			c.rejected.Add(1)
			c.policyRejected.Add(1)
			tv, err := policyOutcome(v)
			if c.telemetered {
				c.emit(0, class, tenant, src, dst, rateBPS, tv, -1, start)
			}
			return 0, err
		}
	}
	if s, ok := c.admitReserve(ci, ri); !ok {
		c.rejected.Add(1)
		if c.telemetered {
			c.emit(0, class, tenant, src, dst, rateBPS, telemetry.RejectedCapacity, s, start)
		}
		return 0, ErrCapacity
	}
	id, seq, ok := c.reg.put(int32(ci), ri)
	if !ok {
		c.reg.gaps.Add(1)
		c.release(ci, ri)
		c.rejected.Add(1)
		if c.telemetered {
			c.emit(0, class, tenant, src, dst, rateBPS, telemetry.RejectedCapacity, -1, start)
		}
		return 0, ErrTooManyFlows
	}
	if c.journal != nil {
		if err := c.journal.AppendAdmit(uint64(id), seq, int32(ci), ri); err != nil {
			// Journal closed (drain) or failed: unwind so the admit never
			// happened — nothing durable acknowledged, nothing reserved.
			c.reg.gaps.Add(1)
			c.reg.take(id)
			c.release(ci, ri)
			if c.telemetered {
				c.emit(0, class, tenant, src, dst, rateBPS, telemetry.RejectedCapacity, -1, start)
			}
			return 0, ErrShuttingDown
		}
	}
	c.noteActive(int64(seq - c.reg.gaps.Load() - c.tornDown.Load()))
	id |= c.nodeBits
	if c.telemetered {
		c.emit(id, class, tenant, src, dst, rateBPS, telemetry.Admitted, -1, start)
	}
	return id, nil
}

// reserve runs the exact utilization test along route ri of class ci,
// reserving the class rate on every server. On failure nothing stays
// reserved and the bottleneck server is returned. This is the paper's
// per-server walk; the common case goes through admitReserve
// (headroom.go), which only lands here near saturation.
func (c *Controller) reserve(ci int, ri int32) (bottleneck int, ok bool) {
	servers := c.paths[ci][ri]
	rate := c.rates[ci]
	base := ci * c.nsrv
	for i, s := range servers {
		if !c.ledReserve(base+s, rate, c.limits[ci][s]) {
			// Roll back the servers already reserved.
			for _, t := range servers[:i] {
				c.ledRelease(base+t, rate)
			}
			return s, false
		}
	}
	return -1, true
}

// release returns route ri's reservations of class ci to the ledger,
// or the flow's unit to the lease source.
func (c *Controller) release(ci int, ri int32) {
	if c.lease != nil {
		c.lease.Put(ci, ri, 1)
		return
	}
	rate := c.rates[ci]
	base := ci * c.nsrv
	for _, s := range c.paths[ci][ri] {
		c.ledRelease(base+s, rate)
	}
}

// noteActive folds one post-admission active count into the MaxActive
// high-water mark.
func (c *Controller) noteActive(act int64) {
	for {
		max := c.maxActive.Load()
		if act <= max || c.maxActive.CompareAndSwap(max, act) {
			return
		}
	}
}

// Teardown releases an admitted flow's reservations.
func (c *Controller) Teardown(id FlowID) error {
	var start time.Time
	if c.telemetered {
		start = c.now()
	}
	rid := id ^ c.nodeBits // as the registry issued it, if this node did
	if rid.Node() != 0 {
		return ErrUnknownFlow
	}
	var freed freeChain
	class, route, ok := c.reg.takeInto(rid, &freed)
	if !ok {
		return ErrUnknownFlow
	}
	freed.flush()
	ci := int(class)
	if !c.budgetPut(ci, route) {
		c.releaseFlowSlow(ci, route)
	}
	c.tornDown.Add(1)
	if c.journal != nil {
		if err := c.journal.AppendTeardown(uint64(rid)); err != nil {
			// The teardown took effect in memory but was not recorded: a
			// crash now resurrects the flow. Surface that honestly —
			// callers retry after the recovered daemon comes back.
			return ErrShuttingDown
		}
	}
	if c.telemetered {
		rt := c.classes[ci].Routes.Route(int(route))
		c.emit(id, c.classes[ci].Class.Name, "", rt.Src, rt.Dst,
			c.classes[ci].Class.Bucket.Rate, telemetry.TornDown, -1, start)
	}
	return nil
}

// Utilization returns the fraction of server s's capacity currently
// reserved by the named class.
func (c *Controller) Utilization(class string, s int) (float64, error) {
	ci, ok := c.byName[class]
	if !ok {
		return 0, ErrUnknownClass
	}
	if s < 0 || s >= c.nsrv {
		return 0, fmt.Errorf("admission: server %d out of range", s)
	}
	// Lease-adjusted: budget held by the headroom plane is reserved on
	// the ledger but not in use by any admitted flow.
	return float64(c.usedMicro(ci, s)) / 1e6 / c.net.ServerCapacity(s), nil
}

// Headroom returns how many more flows of the named class the route of
// (src, dst) can accept right now (0 if no route).
func (c *Controller) Headroom(class string, src, dst int) (int, error) {
	ci, ok := c.byName[class]
	if !ok {
		return 0, ErrUnknownClass
	}
	ri := c.routeIndex(ci, src, dst)
	if ri < 0 {
		return 0, ErrNoRoute
	}
	rate := c.rates[ci]
	min := int64(-1)
	for _, s := range c.paths[ci][ri] {
		free := c.limits[ci][s] - c.usedMicro(ci, s)
		if free < 0 {
			free = 0
		}
		n := free / rate
		if min < 0 || n < min {
			min = n
		}
	}
	return int(min), nil
}

// admittedCount derives the admitted counter from the admission
// cursor (see the counter comment on Controller).
func (c *Controller) admittedCount() uint64 {
	return c.reg.cursor.Load() - c.reg.gaps.Load()
}

// Stats returns a snapshot of the cumulative counters. Admitted and
// Active are derived (see Controller): exact whenever the controller
// is quiescent, and within the in-flight window otherwise.
func (c *Controller) Stats() Stats {
	adm := c.admittedCount()
	torn := c.tornDown.Load()
	return Stats{
		Admitted:       adm,
		Rejected:       c.rejected.Load(),
		RejectedPolicy: c.policyRejected.Load(),
		TornDown:       torn,
		NoRoute:        c.noRoute.Load(),
		Active:         int64(adm - torn),
		MaxActive:      c.maxActive.Load(),
		RegistrySlots:  int64(c.reg.slots()),
	}
}

// ClassRoutes returns the configured route set of the named class.
func (c *Controller) ClassRoutes(class string) (*routes.Set, error) {
	ci, ok := c.byName[class]
	if !ok {
		return nil, ErrUnknownClass
	}
	return c.classes[ci].Routes, nil
}

// Classes returns the configured class names in configuration order.
func (c *Controller) Classes() []string {
	names := make([]string, len(c.classes))
	for i, cc := range c.classes {
		names[i] = cc.Class.Name
	}
	return names
}
