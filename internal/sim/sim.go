// Package sim is a discrete-event network simulator used to validate the
// configuration-time delay bounds empirically: leaky-bucket-conformant
// sources push packets along their configured link-server routes, each
// link server transmits at its capacity under a pluggable scheduling
// discipline (class-based static priority by default, matching the
// paper's forwarding module), and the simulator records per-hop and
// end-to-end delays, deadline misses, and backlog highs.
//
// The paper's analysis bounds *queueing* delay (store-and-forward
// transmission times are constants the paper folds into deadlines), so
// results report both the queueing-only end-to-end delay (comparable to
// the analytic bound) and the raw end-to-end latency.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"ubac/internal/sched"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// Pattern selects how a flow emits packets.
type Pattern int

const (
	// CBR emits one packet every Size/Rate seconds starting at Offset.
	CBR Pattern = iota
	// GreedyBurst emits its full bucket (Burst bits) back-to-back at
	// Offset, then continues at CBR pace — the leaky-bucket worst case.
	GreedyBurst
	// OnOff alternates active CBR periods at elevated rate with silent
	// periods, keeping the long-run average at Rate. Periods are
	// jittered from the simulation seed.
	OnOff
)

// FlowSpec describes one simulated flow.
type FlowSpec struct {
	// Class is the priority index (0 = highest), used by the scheduler.
	Class int
	// Route is the link-server path the packets traverse.
	Route []int
	// Size is the packet size in bits.
	Size float64
	// Rate is the long-run rate in bits/second.
	Rate float64
	// Burst is the bucket depth in bits (GreedyBurst; must be >= Size).
	Burst float64
	// Pattern selects the emission pattern.
	Pattern Pattern
	// Offset delays the flow's first packet.
	Offset float64
	// Deadline, when positive, marks packets late if their end-to-end
	// queueing delay exceeds it.
	Deadline float64
	// OnTime and OffTime set the OnOff pattern periods (defaults 50 ms
	// on / 50 ms off).
	OnTime, OffTime float64
	// Misbehave multiplies the emission rate above the declared Rate
	// (e.g. 2 = sending twice the contract). 0 or 1 means conformant.
	Misbehave float64
	// Police enables the paper's edge policing for this flow: a leaky
	// bucket (Burst, Rate) at the first hop drops nonconforming packets
	// before they enter the network.
	Police bool
}

func (f FlowSpec) validate(net *topology.Network) error {
	if len(f.Route) == 0 {
		return fmt.Errorf("sim: flow needs a route")
	}
	if f.Misbehave < 0 {
		return fmt.Errorf("sim: negative misbehavior factor")
	}
	if f.Police && f.Burst < f.Size {
		return fmt.Errorf("sim: policing needs burst >= packet size")
	}
	for _, s := range f.Route {
		if s < 0 || s >= net.NumServers() {
			return fmt.Errorf("sim: route server %d out of range", s)
		}
	}
	if f.Size <= 0 || f.Rate <= 0 {
		return fmt.Errorf("sim: flow needs positive size and rate")
	}
	if f.Pattern == GreedyBurst && f.Burst < f.Size {
		return fmt.Errorf("sim: greedy burst %g smaller than packet size %g", f.Burst, f.Size)
	}
	if f.Class < 0 {
		return fmt.Errorf("sim: negative class")
	}
	return nil
}

// Config sets up a simulation.
type Config struct {
	// Scheduler kind: "priority" (default), "fifo", "wfq", or "drr".
	Scheduler string
	// Classes is the number of priority classes (default: max flow
	// class + 1).
	Classes int
	// Weights are the WFQ class weights (nil = equal).
	Weights []float64
	// Seed drives all randomness (OnOff jitter). Same seed, same run.
	Seed int64
}

// ClassStats aggregates per-class delivery statistics.
type ClassStats struct {
	Generated uint64
	Delivered uint64
	// Policed counts packets dropped by edge policing before entering
	// the network.
	Policed uint64
	// Late counts deliveries whose queueing delay exceeded the flow
	// deadline.
	Late uint64
	// MaxQueueing and SumQueueing describe the end-to-end queueing
	// delay (the quantity the paper bounds).
	MaxQueueing float64
	SumQueueing float64
	// MaxLatency is the raw end-to-end latency including transmission.
	MaxLatency float64
	// hist buckets end-to-end queueing delays in log2 bins starting at
	// 1 µs (bin 0 also holds anything smaller). Drives Percentile.
	hist [histBins]uint64
}

// record counts one delivered packet of the class, finishing at now.
func (c *ClassStats) record(p *sched.Packet, now float64) {
	c.Delivered++
	w := p.Wait
	if w > c.MaxQueueing {
		c.MaxQueueing = w
	}
	c.SumQueueing += w
	c.hist[histBin(w)]++
	if lat := now - p.Born; lat > c.MaxLatency {
		c.MaxLatency = lat
	}
}

// histBins spans 1 µs · 2^63 — far beyond any simulated delay.
const histBins = 40

// histBin maps a queueing delay to its log2 bucket.
func histBin(q float64) int {
	b := 0
	edge := 1e-6
	for q >= edge && b < histBins-1 {
		edge *= 2
		b++
	}
	return b
}

// Percentile returns an upper estimate of the p-quantile (p in [0,1])
// of the class's end-to-end queueing delay, at log2 bin resolution
// (within 2x of the true value). Zero when nothing was delivered.
func (c ClassStats) Percentile(p float64) float64 {
	if c.Delivered == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(c.Delivered)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b := 0; b < histBins; b++ {
		cum += c.hist[b]
		if cum >= target {
			return 1e-6 * math.Pow(2, float64(b))
		}
	}
	return c.MaxQueueing
}

// MeanQueueing returns the average end-to-end queueing delay.
func (c ClassStats) MeanQueueing() float64 {
	if c.Delivered == 0 {
		return 0
	}
	return c.SumQueueing / float64(c.Delivered)
}

// Results is the outcome of a run.
type Results struct {
	Duration  float64
	PerClass  []ClassStats
	Generated uint64
	Delivered uint64
	// MaxBacklog[s] is the largest packet backlog observed at server s.
	MaxBacklog []int
	// MaxHopDelay[s] is the largest single-hop queueing delay at
	// server s.
	MaxHopDelay []float64
	// PerFlowMaxQueueing[f] is the worst end-to-end queueing delay of
	// flow f's delivered packets.
	PerFlowMaxQueueing []float64
}

// Sim is a single-run simulator instance. Create with New, add flows,
// then Run once.
type Sim struct {
	net   *topology.Network
	cfg   Config
	flows []FlowSpec
	ran   bool
	sink  telemetry.Sink
}

// New returns a simulator over the network.
func New(net *topology.Network, cfg Config) (*Sim, error) {
	if net == nil {
		return nil, fmt.Errorf("sim: nil network")
	}
	kind, err := schedulerKind(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	cfg.Scheduler = kind
	return &Sim{net: net, cfg: cfg, sink: telemetry.Nop{}}, nil
}

// SetSink routes the run's aggregate packet statistics into s as one
// telemetry.SimRun event after Run completes (nil restores the no-op
// default).
func (s *Sim) SetSink(sink telemetry.Sink) {
	if sink == nil {
		sink = telemetry.Nop{}
	}
	s.sink = sink
}

// AddFlow registers a flow and returns its index.
func (s *Sim) AddFlow(f FlowSpec) (int, error) {
	if err := f.validate(s.net); err != nil {
		return 0, err
	}
	s.flows = append(s.flows, f)
	return len(s.flows) - 1, nil
}

type flowRun struct {
	spec      FlowSpec
	nextEmit  float64
	burstLeft int // packets still to emit back-to-back (GreedyBurst)
	onUntil   float64
	// Edge policer state (Police only).
	tokens   float64
	lastFill float64
}

// Run executes the simulation for the given number of simulated seconds
// and returns the collected statistics. A Sim can only run once.
func (s *Sim) Run(duration float64) (*Results, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: already ran")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration %g", duration)
	}
	if len(s.flows) == 0 {
		return nil, fmt.Errorf("sim: no flows")
	}
	s.ran = true
	rng := rand.New(rand.NewSource(s.cfg.Seed))

	classes := s.cfg.Classes
	for _, f := range s.flows {
		if f.Class+1 > classes {
			classes = f.Class + 1
		}
	}

	eng, err := newEngine(s.net, s.cfg.Scheduler, classes, s.cfg.Weights, 2*len(s.flows))
	if err != nil {
		return nil, err
	}
	res := &Results{
		Duration:           duration,
		PerClass:           make([]ClassStats, classes),
		MaxBacklog:         eng.maxBacklog,
		MaxHopDelay:        eng.maxHopDelay,
		PerFlowMaxQueueing: make([]float64, len(s.flows)),
	}
	eng.route = func(flow int) []int { return s.flows[flow].Route }
	eng.deliver = func(p *sched.Packet, now float64) {
		cs := &res.PerClass[p.Class]
		cs.record(p, now)
		res.Delivered++
		if d := s.flows[p.Flow].Deadline; d > 0 && p.Wait > d {
			cs.Late++
		}
		if p.Wait > res.PerFlowMaxQueueing[p.Flow] {
			res.PerFlowMaxQueueing[p.Flow] = p.Wait
		}
	}

	var pktSeq uint64

	runs := make([]flowRun, len(s.flows))
	for i, f := range s.flows {
		runs[i] = flowRun{spec: f, nextEmit: f.Offset, tokens: f.Burst}
		if f.Pattern == GreedyBurst {
			runs[i].burstLeft = int(f.Burst / f.Size)
		}
		if f.Pattern == OnOff {
			on, off := f.OnTime, f.OffTime
			if on <= 0 {
				on = 0.05
			}
			if off <= 0 {
				off = 0.05
			}
			runs[i].spec.OnTime, runs[i].spec.OffTime = on, off
			// Random initial phase.
			runs[i].nextEmit = f.Offset + rng.Float64()*(on+off)
			runs[i].onUntil = runs[i].nextEmit + on
		}
		eng.q.push(event{at: runs[i].nextEmit, kind: evEmit, a: int32(i)})
	}

	emit := func(fi int, now float64) {
		run := &runs[fi]
		f := &run.spec
		pktSeq++
		res.PerClass[f.Class].Generated++
		res.Generated++
		admitted := true
		if f.Police {
			// Leaky-bucket edge policer: refill, then require a full
			// packet's worth of tokens.
			run.tokens, admitted = traffic.LeakyBucket{Burst: f.Burst, Rate: f.Rate}.
				Conform(run.tokens, now-run.lastFill, f.Size)
			run.lastFill = now
			if !admitted {
				res.PerClass[f.Class].Policed++
			}
		}
		if admitted {
			p := &sched.Packet{
				ID:    pktSeq,
				Class: f.Class,
				Flow:  fi,
				Size:  f.Size,
				Born:  now,
			}
			eng.arrive(p, f.Route[0], now)
		}

		period := f.Size / f.Rate
		if f.Misbehave > 1 {
			period /= f.Misbehave
		}
		switch f.Pattern {
		case GreedyBurst:
			if run.burstLeft > 1 {
				run.burstLeft--
				run.nextEmit = now // back-to-back
			} else {
				run.nextEmit = now + period
			}
		case OnOff:
			peak := f.Rate * (f.OnTime + f.OffTime) / f.OnTime
			next := now + f.Size/peak
			if next >= run.onUntil {
				next = run.onUntil + f.OffTime
				run.onUntil = next + f.OnTime
			}
			run.nextEmit = next
		default: // CBR
			run.nextEmit = now + period
		}
		if run.nextEmit <= duration {
			eng.q.push(event{at: run.nextEmit, kind: evEmit, a: int32(fi)})
		}
	}

	if telemetry.Active(s.sink) {
		defer func() {
			run := telemetry.SimRun{
				Generated:   res.Generated,
				Delivered:   res.Delivered,
				Duration:    duration,
				MaxQueueing: 0,
			}
			for _, cs := range res.PerClass {
				run.Policed += cs.Policed
				run.Late += cs.Late
				if cs.MaxQueueing > run.MaxQueueing {
					run.MaxQueueing = cs.MaxQueueing
				}
			}
			s.sink.SimRun(run)
		}()
	}
	// Emits are the only events Sim schedules besides completions.
	err = eng.run(func(e event) error {
		if e.at <= duration {
			emit(int(e.a), e.at)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
