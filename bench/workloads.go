package main

import (
	"fmt"
	"sort"
	"time"

	"ubac/internal/admission"
	"ubac/internal/wire"
	"ubac/internal/workload"
)

// workloadParams is the shape of one workload; see README.md for why
// each exists.
type workloadParams struct {
	conns   int
	closed  *closedCfg
	open    *openCfg
	wal     bool // daemon runs with -data-dir/-fsync async
	cluster bool // three ubacd -cluster processes, driven at a follower
}

// The open loop's arrival rate and mean holding time were calibrated
// once on the seed commit and are frozen here: the rate is about half
// of what eight closed-loop singleton clients on one connection reach
// on the reference box (≈36k admits/s), and the holding time puts the
// hot Zipf routes' links past their limit so that about three arrivals
// in ten are refused. Changing either redefines the workload.
const (
	openRate        = 18000.0 // arrivals per second
	openMeanHolding = 1.0     // seconds
)

var batchShape = closedCfg{clients: 8, frameOps: 64, hold: 256}

var params = map[string]workloadParams{
	wlWireBatch:    {conns: 2, closed: &batchShape},
	wlWireBatchWAL: {conns: 2, closed: &batchShape, wal: true},
	wlOverloadOpen: {conns: 1, open: &openCfg{rate: openRate, meanHolding: openMeanHolding}},
	wlClusterEdge:  {conns: 2, closed: &batchShape, cluster: true},
}

// drainFrameOps is the frame size of the post-window drain.
const drainFrameOps = 64

// makeWindow lays out warm-up and slices for a measurement of the
// given length.
func makeWindow(length time.Duration) window {
	w := window{warm: 3 * time.Second, length: length, slices: int(length / time.Second)}
	if length < 6*time.Second {
		// Short windows (traced sub-runs, the smoke test): keep slices
		// long enough to hold a meaningful sample.
		w.warm = length / 4
		w.slices = 3
	}
	return w
}

// openOutcome is the open loop's schedule-level accounting.
type openOutcome struct {
	rejectRatio float64 // measured, calls arriving inside the window
	oracleRatio float64
	lagP50US    float64
	lagP99US    float64
}

// preparedLoad is a workload's traffic, generated and ready to start:
// schedule generation takes tens of milliseconds, and the run's clock
// must not be running while it happens or the first ops start late.
type preparedLoad struct {
	p       workloadParams
	w       window
	seed    int64
	horizon float64
	calls   []openCall
	events  []workload.Event
}

func prepareLoad(z *zipf, p workloadParams, w window, seed int64) (*preparedLoad, error) {
	pl := &preparedLoad{p: p, w: w, seed: seed, horizon: (w.warm + w.length).Seconds()}
	if p.open != nil {
		var err error
		pl.calls, pl.events, err = openSchedule(z, seed, p.open.rate, p.open.meanHolding, pl.horizon)
		if err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// run drives the prepared traffic at env, whose origin the caller has
// just set, and returns the raw result; for the open loop it also
// replays the schedule through the exact-walk oracle.
func (pl *preparedLoad) run(env *loadEnv) (*loadResult, *openOutcome, error) {
	w := pl.w
	if pl.p.closed != nil {
		return runClosed(env, *pl.p.closed, w, pl.seed), nil, nil
	}
	calls, events := pl.calls, pl.events
	res, err := runOpen(env, env.addr, w, calls, events)
	if err != nil {
		return nil, nil, err
	}
	out := &openOutcome{lagP50US: res.lag.quantile(0.50) / 1e3, lagP99US: res.lag.quantile(0.99) / 1e3}
	oracle, err := oracleVerdicts(env.dep, calls, events, pl.horizon)
	if err != nil {
		return nil, nil, err
	}
	var windowCalls, rejected, oracleRejected int
	for i, c := range calls {
		if c.Arrive < w.warm.Seconds() {
			continue
		}
		windowCalls++
		if res.verdicts[i] == callRejected {
			rejected++
		}
		if !oracle[i] {
			oracleRejected++
		}
	}
	if windowCalls > 0 {
		out.rejectRatio = float64(rejected) / float64(windowCalls)
		out.oracleRatio = float64(oracleRejected) / float64(windowCalls)
	}
	return res, out, nil
}

// oracleVerdicts replays the schedule in due-time order through a
// fresh controller with the fast path off — the paper's per-server walk
// and nothing else — and returns whether each call was admitted.
func oracleVerdicts(dep *deployment, calls []openCall, events []workload.Event, horizon float64) ([]bool, error) {
	ctrl, err := dep.controller()
	if err != nil {
		return nil, err
	}
	ctrl.SetFastPath(false)
	admitted := make([]bool, len(calls))
	ids := make([]admission.FlowID, len(calls))
	for _, ev := range events {
		if ev.At >= horizon {
			break
		}
		c := calls[ev.Call]
		if ev.Start {
			p := dep.pairs[c.Route]
			id, err := ctrl.Admit(benchClass, p[0], p[1])
			if err == nil {
				admitted[ev.Call], ids[ev.Call] = true, id
			}
		} else if admitted[ev.Call] {
			if err := ctrl.Teardown(ids[ev.Call]); err != nil {
				return nil, fmt.Errorf("oracle: teardown: %w", err)
			}
		}
	}
	return admitted, nil
}

// windowStats reduces the slices to the reported estimators. The box
// this runs on is a small shared VM whose noise is one-sided — a
// neighbour or a kernel thread only ever makes a slice slower — and
// comes in phases of seconds (EXPERIMENTS.md X-8). A change to the
// daemon moves every slice; a noise phase moves some. So each run
// reports its quiet decile: the 90th percentile of the slices' admit
// rates, the 10th percentile of the slices' latency quantiles and of
// their CPU per op. Measured over eight seeds this takes a third off
// the seed-to-seed spread of the median slice (and cuts the open loop's
// p99 spread from 0.17 to 0.06); README.md has the table.
type windowStats struct {
	admitsPerS     float64
	p50US, p99US   float64
	ops            uint64 // admit attempts + teardowns in the window
	frames         uint64
	latencySamples uint64
	tailQ, tailUS  float64 // highest supported percentile over the whole window

	// Per slice, for the -out document and for judging the estimators.
	sliceRates, sliceP50US, sliceP99US []float64
	sliceOps                           []uint64
}

func reduceWindow(res *loadResult, w window) windowStats {
	var ws windowStats
	sl := w.sliceLen().Seconds()
	var rates, p50s, p99s []float64
	all := newHist()
	for _, s := range res.slices {
		rates = append(rates, float64(s.admitted)/sl)
		p50s = append(p50s, s.latency.quantile(0.50)/1e3)
		p99s = append(p99s, s.latency.quantile(0.99)/1e3)
		ws.ops += s.ops
		ws.frames += s.frames
		all.merge(s.latency)
	}
	ws.admitsPerS = quantileOf(rates, quietHigh)
	ws.p50US = quantileOf(p50s, quietLow)
	ws.p99US = quantileOf(p99s, quietLow)
	ws.sliceRates, ws.sliceP50US, ws.sliceP99US = rates, p50s, p99s
	for _, s := range res.slices {
		ws.sliceOps = append(ws.sliceOps, s.ops)
	}
	ws.latencySamples = all.count()
	if q, v, ok := all.highest(); ok {
		ws.tailQ, ws.tailUS = q, v/1e3
	}
	return ws
}

// The quiet decile: see windowStats.
const (
	quietHigh = 0.90 // of higher-is-better slice values
	quietLow  = 0.10 // of lower-is-better slice values
)

// quantileOf returns the p-quantile of v with linear interpolation
// between order statistics; 0 for an empty v.
func quantileOf(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := p * float64(len(s)-1)
	lo := int(k)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(k-float64(lo))
}

func median(v []float64) float64 { return quantileOf(v, 0.5) }

// connect dials a wire endpoint with the workload's connection count
// and checks that the daemon's route table is the one the bench's own
// configuration step produced — route indexes, and with them the
// shadow ledger's paths, are only meaningful if it is.
func connect(dep *deployment, addr string, conns int) (*wire.Client, error) {
	c, err := wire.Dial(wire.ClientOptions{Addr: addr, Conns: conns, Pipeline: 1024})
	if err != nil {
		return nil, err
	}
	pairs, err := c.Routes(dep.classIndex)
	if err != nil {
		c.Close()
		return nil, err
	}
	if len(pairs) != len(dep.pairs) {
		c.Close()
		return nil, fmt.Errorf("daemon has %d %s routes, the bench configured %d", len(pairs), benchClass, len(dep.pairs))
	}
	for i, p := range pairs {
		if int(p.Src) != dep.pairs[i][0] || int(p.Dst) != dep.pairs[i][1] {
			c.Close()
			return nil, fmt.Errorf("daemon route %d is %d→%d, the bench configured %d→%d", i, p.Src, p.Dst, dep.pairs[i][0], dep.pairs[i][1])
		}
	}
	return c, nil
}
