package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ubac/internal/graph"
	"ubac/internal/topology"
)

// The pruned Yen loop both solvers share must equal the unpruned oracle
// path for path on the router graph route selection runs on: every
// ordered MCI pair and k = 1…8, under unit weights (both solvers) and
// under three seeded weight vectors whose exact ties and zero-weight arcs
// make the tie-breaks matter (the weighted solver). One solver of each
// kind serves every query, so stale scratch would show.
func TestSolversMatchOracleOnMCI(t *testing.T) {
	rg := topology.MCI().RouterGraph()
	unit := func(u, v int) float64 { return 1 }
	weights := []graph.WeightFunc{unit}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := make(map[[2]int]float64)
		for u := 0; u < rg.Order(); u++ {
			for _, v := range rg.Neighbors(u) {
				switch rng.Intn(4) {
				case 0:
					w[[2]int{u, v}] = 0
				case 1, 2:
					w[[2]int{u, v}] = float64(1 + rng.Intn(2))
				default:
					w[[2]int{u, v}] = rng.Float64() * 2
				}
			}
		}
		weights = append(weights, func(u, v int) float64 { return w[[2]int{u, v}] })
	}
	ksp, wksp := graph.NewKSPSolver(rg), graph.NewWeightedKSPSolver(rg)
	for wi, w := range weights {
		for src := 0; src < rg.Order(); src++ {
			for dst := 0; dst < rg.Order(); dst++ {
				if src == dst {
					continue
				}
				for k := 1; k <= 8; k++ {
					want, err := graph.OracleKShortestPathsWeighted(rg, src, dst, k, w)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("weights %d, %d->%d, k=%d", wi, src, dst, k)
					got, err := wksp.Paths(src, dst, k, w)
					samePaths(t, "weighted, "+label, got, err, want)
					if wi == 0 {
						got, err := ksp.Paths(src, dst, k)
						samePaths(t, "hop-count, "+label, got, err, want)
					}
				}
			}
		}
	}
}

func samePaths(t *testing.T, label string, got [][]int, err error, want [][]int) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("%s: paths %v, oracle %v", label, got, want)
	}
}
