package main

import (
	"sync"
	"time"

	"ubac/internal/wire"
)

// The load generator: one process, goroutine clients multiplexed on a
// wire.Client's connections. Closed-loop clients send their next frame
// when the previous one is answered; the open loop sends each op when
// its schedule says so and times it from that due time.

// heldFlow is an admitted flow the generator has not torn down yet.
type heldFlow struct {
	id    uint64
	route int32
}

// loadEnv is what a generator drives and records into.
type loadEnv struct {
	client *wire.Client // closed loop, drain
	addr   string       // open loop: it dials its own connection
	dep    *deployment
	sh     *shadow
	z      *zipf
	origin time.Time // zero of the run's nanosecond clock
	tr     *tracer   // client-side spans; nil when tracing is off
}

func (e *loadEnv) now() int64 { return int64(time.Since(e.origin)) }

func (e *loadEnv) req(route int32) wire.AdmitReq {
	p := e.dep.pairs[route]
	return wire.AdmitReq{Class: e.dep.classIndex, Src: uint32(p[0]), Dst: uint32(p[1])}
}

// window describes a run's timeline: a warm-up, then `slices` equal
// measurement slices. Every reported rate and quantile is the median
// over slices, which rides out the multi-second noise phases this box
// has (EXPERIMENTS.md X-8).
type window struct {
	warm   time.Duration
	length time.Duration
	slices int
}

func (w window) sliceLen() time.Duration { return w.length / time.Duration(w.slices) }

// sliceOf maps a time (ns since origin) to its slice: -1 in the
// warm-up, w.slices after the end.
func (w window) sliceOf(t int64) int {
	t -= int64(w.warm)
	if t < 0 || w.slices == 0 {
		return -1
	}
	i := int(t / int64(w.sliceLen()))
	if i > w.slices {
		i = w.slices
	}
	return i
}

// sliceStat is one measurement slice.
type sliceStat struct {
	admitted uint64
	ops      uint64 // admit attempts and teardowns answered in the slice
	frames   uint64
	latency  *hist // admit latency: closed loop frame RTT, open loop from due time
}

func newSliceStats(n int) []sliceStat {
	st := make([]sliceStat, n)
	for i := range st {
		st[i].latency = newHist()
	}
	return st
}

func mergeSliceStats(dst, src []sliceStat) {
	for i := range src {
		dst[i].admitted += src[i].admitted
		dst[i].ops += src[i].ops
		dst[i].frames += src[i].frames
		dst[i].latency.merge(src[i].latency)
	}
}

// loadResult is what one generator run observed.
type loadResult struct {
	slices []sliceStat
	counts opCounts // whole run, warm-up included
	lag    *hist    // open loop: how late ops left the generator
	held   []heldFlow

	// Open loop only: verdict per call (callPending if never decided).
	verdicts []uint32
}

// closedCfg shapes the closed loop.
type closedCfg struct {
	clients  int
	frameOps int
	hold     int // flows each client holds before it starts tearing down
}

// runClosed drives the closed loop for w.warm+w.length and returns
// with the clients' held flows still admitted.
func runClosed(env *loadEnv, cfg closedCfg, w window, seed int64) *loadResult {
	res := &loadResult{slices: newSliceStats(w.slices)}
	end := int64(w.warm + w.length)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := closedClient{env: env, cfg: cfg, w: w, stats: newSliceStats(w.slices),
				stream: newClientStream(env.z, seed, c), sc: env.sh.newScratch()}
			cl.run(end)
			mu.Lock()
			mergeSliceStats(res.slices, cl.stats)
			res.counts.add(cl.counts)
			res.held = append(res.held, cl.held...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

type closedClient struct {
	env    *loadEnv
	cfg    closedCfg
	w      window
	stream *clientStream
	sc     *scratch
	stats  []sliceStat
	counts opCounts
	held   []heldFlow

	routes   []int32
	reqs     []wire.AdmitReq
	results  []wire.AdmitResult
	admitted []bool
	ids      []uint64
	tdRoutes []int32
	statuses []uint32

	// unknownOK makes an unknown-flow teardown status an accepted
	// outcome (the post-crash pass), counted in unknown.
	unknownOK bool
	unknown   int
}

func (cl *closedClient) run(end int64) {
	env := cl.env
	n := cl.cfg.frameOps
	cl.routes = make([]int32, n)
	cl.reqs = make([]wire.AdmitReq, n)
	cl.admitted = make([]bool, n)
	failures := 0
	for env.now() < end && failures < 100 {
		for i := range cl.routes {
			cl.routes[i] = cl.stream.next()
			cl.reqs[i] = env.req(cl.routes[i])
		}
		if !cl.admitFrame() {
			failures++
			time.Sleep(10 * time.Millisecond)
			continue
		}
		failures = 0
		if over := len(cl.held) - cl.cfg.hold; over > 0 {
			if over > wire.MaxFrameOps {
				over = wire.MaxFrameOps
			}
			cl.teardownFrame(cl.held[:over])
			cl.held = append(cl.held[:0], cl.held[over:]...)
		}
	}
}

// admitFrame sends one admit frame and books its verdicts. It returns
// false when the frame failed in transport.
func (cl *closedClient) admitFrame() bool {
	env := cl.env
	t0 := env.now()
	env.sh.sendAdmits(cl.sc, cl.routes, t0)
	var err error
	cl.results, err = env.client.Admit(cl.reqs, cl.results[:0])
	t1 := env.now()
	nops := uint64(len(cl.reqs))
	cl.counts.Attempted += nops
	if err != nil {
		env.sh.abortAdmits(cl.sc, cl.routes, t1)
		cl.counts.Transport += nops
		return false
	}
	admitted := uint64(0)
	for i, r := range cl.results {
		cl.admitted[i] = r.Status == wire.StatusOK
		switch {
		case r.Status == wire.StatusOK:
			admitted++
			cl.held = append(cl.held, heldFlow{id: r.ID, route: cl.routes[i]})
		case r.Status == wire.StatusCapacity:
			cl.counts.Rejected++
		default:
			cl.counts.BadVerdict++
		}
	}
	cl.counts.Admitted += admitted
	cl.counts.Spurious += uint64(env.sh.admitVerdicts(cl.sc, cl.routes, cl.admitted, t0, t1))
	if env.tr != nil {
		env.tr.clientSpan(spanAdmit, t0, t1, int(nops))
	}
	if s := cl.w.sliceOf(t1); s >= 0 && s < len(cl.stats) {
		st := &cl.stats[s]
		st.admitted += admitted
		st.ops += nops
		st.frames++
		st.latency.record(t1 - t0)
	}
	return true
}

// teardownFrame tears down the given held flows in one frame.
func (cl *closedClient) teardownFrame(flows []heldFlow) {
	env := cl.env
	cl.ids = cl.ids[:0]
	cl.tdRoutes = cl.tdRoutes[:0]
	for _, f := range flows {
		cl.ids = append(cl.ids, f.id)
		cl.tdRoutes = append(cl.tdRoutes, f.route)
	}
	routes := cl.tdRoutes
	t0 := env.now()
	env.sh.sendTeardowns(cl.sc, routes, t0)
	var err error
	cl.statuses, err = env.client.Teardown(cl.ids, cl.statuses[:0])
	t1 := env.now()
	nops := uint64(len(cl.ids))
	cl.counts.Attempted += nops
	// Answered or not, the flows leave the generator's books: a failed
	// teardown is a failed op, not something to retry into the numbers.
	env.sh.teardownsDone(cl.sc, routes, t1)
	if err != nil {
		cl.counts.Transport += nops
		return
	}
	for _, st := range cl.statuses {
		switch {
		case st == wire.StatusOK:
			cl.counts.Teardowns++
		case st == wire.StatusUnknownFlow && cl.unknownOK:
			cl.unknown++
		default:
			cl.counts.BadVerdict++
		}
	}
	if env.tr != nil {
		env.tr.clientSpan(spanTeardown, t0, t1, int(nops))
	}
	if s := cl.w.sliceOf(t1); s >= 0 && s < len(cl.stats) {
		cl.stats[s].ops += nops
		cl.stats[s].frames++
	}
}

// drain tears down every held flow in frames of drainFrameOps and
// books the outcome into counts: the post-window pass of every
// workload. With unknownOK an unknown-flow answer is accepted rather
// than a bad verdict; it returns how many flows tore down and how many
// were unknown.
func drain(env *loadEnv, held []heldFlow, counts *opCounts, unknownOK bool) (tornDown, unknown int) {
	cl := closedClient{env: env, sc: env.sh.newScratch(), unknownOK: unknownOK}
	for len(held) > 0 {
		n := drainFrameOps
		if n > len(held) {
			n = len(held)
		}
		cl.teardownFrame(held[:n])
		held = held[n:]
	}
	counts.add(cl.counts)
	return int(cl.counts.Teardowns), cl.unknown
}
