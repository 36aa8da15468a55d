package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ubac/internal/workload"
)

// Workload inputs are generated here from -seed; the daemon only ever
// sees the frames they turn into.
//
// Route popularity is Zipf(s=1) over the class's configured routes.
// Which route holds which rank is a fixed property of the workload
// (rankSeed), not of the run's seed: the seed draws the op sequence,
// the popularity map stays put, so two seeds load the same hub links
// and differ only in arrival order. A per-seed ranking would move the
// saturated links around the topology and turn seed-to-seed spread
// into a measure of the topology rather than of the daemon.

const rankSeed = 20000821 // ICPP 2000, fixed for the life of the benchmark

// zipf draws route indexes with P(rank k) ∝ 1/(k+1).
type zipf struct {
	cdf    []float64
	routes []int32 // rank → route index
}

func newZipf(nRoutes int) *zipf {
	z := &zipf{cdf: make([]float64, nRoutes), routes: make([]int32, nRoutes)}
	for rank, route := range rand.New(rand.NewSource(rankSeed)).Perm(nRoutes) {
		z.routes[rank] = int32(route)
	}
	total := 0.0
	for k := range z.cdf {
		total += 1 / float64(k+1)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int32 {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	if k >= len(z.routes) {
		k = len(z.routes) - 1
	}
	return z.routes[k]
}

// clientStream is one closed-loop client's endless route sequence,
// a pure function of (seed, client).
type clientStream struct {
	z   *zipf
	rng *rand.Rand
}

func newClientStream(z *zipf, seed int64, client int) *clientStream {
	return &clientStream{z: z, rng: rand.New(rand.NewSource(seed*1000003 + int64(client)))}
}

func (s *clientStream) next() int32 { return s.z.draw(s.rng) }

// openCall is one open-loop call: it is due at Arrive seconds after
// the schedule's origin, holds for Holding seconds, and asks for Route.
type openCall struct {
	Arrive  float64
	Holding float64
	Route   int32
}

// openSchedule generates a Poisson arrival process at `rate` calls/s
// with exponential holding times of the given mean, over `horizon`
// seconds: arrival and holding times come from internal/workload (the
// same generator the DES and ubacload's scenario mode use), the route
// of each call from the Zipf map. Events is the time-ordered
// arrival/departure list.
func openSchedule(z *zipf, seed int64, rate, meanHolding, horizon float64) ([]openCall, []workload.Event, error) {
	// The generator wants a pair list; its uniform pair choice is
	// discarded for the Zipf draw below, so one dummy pair suffices.
	g, err := workload.NewGenerator(rate, meanHolding, [][2]int{{0, 1}}, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("open schedule: %w", err)
	}
	wc := g.Generate(horizon)
	rng := rand.New(rand.NewSource(seed*1000003 + 999983))
	calls := make([]openCall, len(wc))
	for i, c := range wc {
		calls[i] = openCall{Arrive: c.Arrive, Holding: c.Holding, Route: z.draw(rng)}
	}
	return calls, workload.Schedule(wc), nil
}
