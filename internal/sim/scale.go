package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ubac/internal/admission"
	"ubac/internal/sched"
	"ubac/internal/topology"
	"ubac/internal/workload"
)

// ScaleConfig configures a flow-lifetime scale run.
type ScaleConfig struct {
	// Scheduler kind: "priority" (default), "fifo", "wfq", or "drr".
	Scheduler string
	// Seed drives every random draw the simulator itself makes (class
	// mix). The workload source carries its own rng; give it one seeded
	// from the same run seed for a fully reproducible run.
	Seed int64
	// Lifetimes stops the run after this many flow arrivals have been
	// offered to the controller (0 = until the source is exhausted).
	Lifetimes uint64
	// PacketsPerFlow caps how many packets each admitted flow emits: a
	// leaky-bucket burst at admit, then its CBR cadence until the cap or
	// teardown. The cap is what keeps a million-lifetime run's event
	// count linear in lifetimes rather than in holding time (default 4).
	PacketsPerFlow int
	// ClassWeights is the arrival class mix, parallel to the
	// controller's class order (nil = uniform). Each arriving call draws
	// its class from this distribution.
	ClassWeights []float64
}

// ScaleClassReport aggregates one class's flow- and packet-level
// statistics over a scale run. All fields are totals over the whole
// run; delay fields are seconds.
type ScaleClassReport struct {
	Class            string  `json:"class"`
	Offered          uint64  `json:"offered"`
	Admitted         uint64  `json:"admitted"`
	RejectedCapacity uint64  `json:"rejected_capacity"`
	RejectedNoRoute  uint64  `json:"rejected_no_route"`
	Packets          uint64  `json:"packets"`
	Delivered        uint64  `json:"delivered"`
	MaxQueueing      float64 `json:"max_queueing"`
	MeanQueueing     float64 `json:"mean_queueing"`
	P99Queueing      float64 `json:"p99_queueing"`
	MaxLatency       float64 `json:"max_latency"`
}

// ScaleReport is the machine-readable outcome of a scale run. Field
// order is fixed and no maps appear anywhere, so marshaling the report
// of two same-seed runs yields identical bytes — the determinism
// contract CI compares against.
type ScaleReport struct {
	Seed      int64   `json:"seed"`
	Lifetimes uint64  `json:"lifetimes"`
	Admitted  uint64  `json:"admitted"`
	Rejected  uint64  `json:"rejected"`
	Teardowns uint64  `json:"teardowns"`
	Duration  float64 `json:"virtual_duration"`
	// MaxActive is the peak number of concurrently admitted flows.
	MaxActive int `json:"max_active"`
	// PeakSlots and PeakPackets witness the memory bound: live flow
	// slots and live packets track concurrency, not total lifetimes.
	PeakSlots   int `json:"peak_slots"`
	PeakPackets int `json:"peak_packets"`
	// MaxBacklog is the largest packet backlog at any one server.
	MaxBacklog int `json:"max_backlog"`
	// MaxHopDelay is the largest single-hop queueing delay anywhere.
	MaxHopDelay float64            `json:"max_hop_delay"`
	PerClass    []ScaleClassReport `json:"per_class"`
	// Bounds is the bound-vs-observed verdict, attached by the harness
	// via CheckObservedMax over ObservedMax.
	Bounds *BoundCheck `json:"bounds,omitempty"`
}

// ObservedMax returns the per-class observed worst queueing delays,
// parallel to the controller's class order — the vector
// CheckObservedMax validates against the analytic bounds.
func (r *ScaleReport) ObservedMax() []float64 {
	obs := make([]float64, len(r.PerClass))
	for i := range r.PerClass {
		obs[i] = r.PerClass[i].MaxQueueing
	}
	return obs
}

// scaleSlot is one live flow in the churn table. Slots are reused
// through a freelist: a slot is recycled once its flow has departed
// AND no emitted packet still references it, so memory tracks
// concurrent activity rather than total lifetimes.
type scaleSlot struct {
	servers  []int // route link servers (shared with the route set)
	id       admission.FlowID
	departAt float64
	class    int32
	emitted  int32
	inflight int32
	closed   bool
}

// scaleClass is the per-class emission profile derived from the
// admission configuration.
type scaleClass struct {
	name   string
	size   float64 // packet size in bits (= bucket depth: one-packet burst)
	period float64 // CBR inter-packet gap, size over the bucket rate
	prio   int
}

// ScaleSim is the flow-lifetime discrete-event simulator: arrivals and
// teardowns are simulation events, every arrival is offered to the real
// admission controller in virtual time, and admitted flows emit a
// bounded burst of packets through the link-server network so observed
// queueing delays can be checked against the verified bounds.
//
// Create with NewScale and Run once. Runs are deterministic: same
// configuration, source, and seed produce a byte-identical marshaled
// ScaleReport.
type ScaleSim struct {
	net     *topology.Network
	ctrl    *admission.Controller
	classes []scaleClass
	// routeOf[ci][src*nrt+dst] mirrors the controller's route table so
	// the simulator knows which servers an admitted flow's packets
	// traverse (last route for a pair wins, as in the controller).
	routeOf [][]int32
	// paths[ci][ri] is route ri's link-server path for class ci.
	paths [][][]int
	src   workload.Source
	cfg   ScaleConfig
	ran   bool
}

// NewScale builds a scale simulator over the controller's network. The
// classes slice must be the exact ClassConfig slice the controller was
// built with (same order); src supplies the arrival process.
func NewScale(ctrl *admission.Controller, classes []admission.ClassConfig, src workload.Source, cfg ScaleConfig) (*ScaleSim, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("sim: nil controller")
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("sim: no classes")
	}
	if src == nil {
		return nil, fmt.Errorf("sim: nil workload source")
	}
	kind, err := schedulerKind(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	cfg.Scheduler = kind
	if cfg.PacketsPerFlow == 0 {
		cfg.PacketsPerFlow = 4
	}
	if cfg.PacketsPerFlow < 0 {
		return nil, fmt.Errorf("sim: negative packet cap")
	}
	if cfg.ClassWeights != nil && len(cfg.ClassWeights) != len(classes) {
		return nil, fmt.Errorf("sim: %d class weights for %d classes", len(cfg.ClassWeights), len(classes))
	}
	for i, w := range cfg.ClassWeights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("sim: invalid weight %g for class %d", w, i)
		}
	}
	net := classes[0].Routes.Network()
	nrt := net.NumRouters()
	s := &ScaleSim{net: net, ctrl: ctrl, src: src, cfg: cfg}
	for _, cc := range classes {
		size := cc.Class.Bucket.Burst
		if size <= 0 || cc.Class.Bucket.Rate <= 0 {
			return nil, fmt.Errorf("sim: class %q needs a positive bucket", cc.Class.Name)
		}
		s.classes = append(s.classes, scaleClass{
			name:   cc.Class.Name,
			size:   size,
			period: size / cc.Class.Bucket.Rate,
			prio:   cc.Class.Priority,
		})
		table := make([]int32, nrt*nrt)
		for j := range table {
			table[j] = -1
		}
		for r := 0; r < cc.Routes.Len(); r++ {
			rt := cc.Routes.Route(r)
			table[rt.Src*nrt+rt.Dst] = int32(r)
		}
		s.routeOf = append(s.routeOf, table)
	}
	// Keep the route sets for server-path lookup at admit time.
	s.paths = make([][][]int, len(classes))
	for ci, cc := range classes {
		s.paths[ci] = make([][]int, cc.Routes.Len())
		for r := 0; r < cc.Routes.Len(); r++ {
			s.paths[ci][r] = cc.Routes.Route(r).Servers
		}
	}
	return s, nil
}

// Run executes the scale simulation to completion: it pulls arrivals
// from the source (up to cfg.Lifetimes), offers each to the controller
// under the virtual clock, simulates the admitted flows' packets, and
// drains all in-flight work before reporting. A ScaleSim runs once.
func (s *ScaleSim) Run() (*ScaleReport, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: already ran")
	}
	s.ran = true
	rng := rand.New(rand.NewSource(s.cfg.Seed))

	prioClasses := 1
	for _, c := range s.classes {
		if c.prio+1 > prioClasses {
			prioClasses = c.prio + 1
		}
	}
	eng, err := newEngine(s.net, s.cfg.Scheduler, prioClasses, nil, 1024)
	if err != nil {
		return nil, err
	}

	// Virtual clock: the controller reads simulation time, the time of
	// the event being handled, so audit timestamps and latencies are
	// pure functions of the event sequence.
	s.ctrl.SetClock(func() time.Time { return time.Unix(0, int64(math.Round(eng.now*1e9))) })
	defer s.ctrl.SetClock(nil)

	rep := &ScaleReport{Seed: s.cfg.Seed}
	stats := make([]ClassStats, len(s.classes))
	rep.PerClass = make([]ScaleClassReport, len(s.classes))
	for i, c := range s.classes {
		rep.PerClass[i].Class = c.name
	}

	// Flow slot table with freelist: bounded by peak concurrency.
	var slots []scaleSlot
	var free []int32
	alloc := func() int32 {
		if n := len(free); n > 0 {
			idx := free[n-1]
			free = free[:n-1]
			return idx
		}
		slots = append(slots, scaleSlot{})
		if len(slots) > rep.PeakSlots {
			rep.PeakSlots = len(slots)
		}
		return int32(len(slots) - 1)
	}
	release := func(idx int32) {
		slots[idx] = scaleSlot{}
		free = append(free, idx)
	}

	// Packet pool, same idea: live packets bound the pool.
	var pool []*sched.Packet
	livePackets := 0
	newPacket := func() *sched.Packet {
		livePackets++
		if livePackets > rep.PeakPackets {
			rep.PeakPackets = livePackets
		}
		if n := len(pool); n > 0 {
			p := pool[n-1]
			pool = pool[:n-1]
			*p = sched.Packet{}
			return p
		}
		return &sched.Packet{}
	}
	freePacket := func(p *sched.Packet) {
		livePackets--
		pool = append(pool, p)
	}

	classWeightTotal := 0.0
	for _, w := range s.cfg.ClassWeights {
		classWeightTotal += w
	}
	drawClass := func() int {
		if len(s.classes) == 1 {
			return 0
		}
		if s.cfg.ClassWeights == nil || classWeightTotal <= 0 {
			return rng.Intn(len(s.classes))
		}
		x := rng.Float64() * classWeightTotal
		for i, w := range s.cfg.ClassWeights {
			x -= w
			if x < 0 {
				return i
			}
		}
		return len(s.classes) - 1
	}

	var pktSeq uint64
	active := 0

	slotDone := func(idx int32) {
		sl := &slots[idx]
		if sl.closed && sl.inflight == 0 {
			release(idx)
		}
	}
	eng.route = func(flow int) []int { return slots[flow].servers }
	eng.deliver = func(p *sched.Packet, now float64) {
		idx := int32(p.Flow)
		sl := &slots[idx]
		stats[sl.class].record(p, now)
		sl.inflight--
		freePacket(p)
		slotDone(idx)
	}

	emit := func(idx int32, now float64) {
		sl := &slots[idx]
		cl := &s.classes[sl.class]
		pktSeq++
		stats[sl.class].Generated++
		p := newPacket()
		p.ID = pktSeq
		p.Class = cl.prio
		p.Flow = int(idx)
		p.Size = cl.size
		p.Born = now
		sl.inflight++
		sl.emitted++
		eng.arrive(p, sl.servers[0], now)
		if int(sl.emitted) < s.cfg.PacketsPerFlow {
			// The one-packet burst went out at admit; the rest follow at
			// the CBR cadence, strictly before the departure: the
			// teardown event carries a lower sequence number than any
			// emit scheduled at or after it, so an emit past departAt
			// could reference a freed slot.
			if next := now + cl.period; next < sl.departAt {
				eng.q.push(event{at: next, kind: evEmit, a: idx})
			}
		}
	}

	// Arrival pump: one pending call at a time, pulled in source order.
	var pending workload.Call
	havePending := false
	pull := func() {
		havePending = false
		if s.cfg.Lifetimes > 0 && rep.Lifetimes >= s.cfg.Lifetimes {
			return
		}
		c, ok := s.src.Next()
		if !ok {
			return
		}
		pending = c
		havePending = true
		eng.q.push(event{at: c.Arrive, kind: evArrive})
	}
	pull()

	admitCall := func(c workload.Call, now float64) {
		ci := drawClass()
		cl := &s.classes[ci]
		pc := &rep.PerClass[ci]
		pc.Offered++
		id, err := s.ctrl.Admit(cl.name, c.Src, c.Dst)
		if err != nil {
			rep.Rejected++
			switch {
			case errors.Is(err, admission.ErrNoRoute):
				pc.RejectedNoRoute++
			default:
				pc.RejectedCapacity++
			}
			return
		}
		rep.Admitted++
		pc.Admitted++
		active++
		if active > rep.MaxActive {
			rep.MaxActive = active
		}
		ri := s.routeOf[ci][c.Src*s.net.NumRouters()+c.Dst]
		idx := alloc()
		slots[idx] = scaleSlot{
			servers:  s.paths[ci][ri],
			id:       id,
			departAt: now + c.Holding,
			class:    int32(ci),
		}
		eng.q.push(event{at: slots[idx].departAt, kind: evDepart, a: idx})
		if s.cfg.PacketsPerFlow > 0 && now < slots[idx].departAt {
			eng.q.push(event{at: now, kind: evEmit, a: idx})
		}
	}

	err = eng.run(func(e event) error {
		switch e.kind {
		case evArrive:
			if !havePending {
				return fmt.Errorf("sim: arrival event with no pending call")
			}
			rep.Lifetimes++
			admitCall(pending, e.at)
			pull()
		case evDepart:
			sl := &slots[e.a]
			if err := s.ctrl.Teardown(sl.id); err != nil {
				return fmt.Errorf("sim: teardown of flow %d: %w", sl.id, err)
			}
			rep.Teardowns++
			active--
			sl.closed = true
			slotDone(e.a)
		case evEmit:
			emit(e.a, e.at)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Events pop in time order, so the last one ends the run.
	rep.Duration = eng.now
	for srv := range eng.servers {
		rep.MaxBacklog = max(rep.MaxBacklog, eng.maxBacklog[srv])
		rep.MaxHopDelay = max(rep.MaxHopDelay, eng.maxHopDelay[srv])
	}
	for i := range stats {
		pc := &rep.PerClass[i]
		pc.Packets = stats[i].Generated
		pc.Delivered = stats[i].Delivered
		pc.MaxQueueing = stats[i].MaxQueueing
		pc.MeanQueueing = stats[i].MeanQueueing()
		pc.P99Queueing = stats[i].Percentile(0.99)
		pc.MaxLatency = stats[i].MaxLatency
	}
	return rep, nil
}
