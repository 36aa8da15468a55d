package routing

import (
	"sort"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// benchGridPairs picks the n longest-distance pairs of the grid (the
// regime where lookahead evaluation dominates: many candidates, long
// routes), deterministically.
func benchGridPairs(net *topology.Network, n int) [][2]int {
	rg := net.RouterGraph()
	all := net.Pairs()
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		da, db := rg.Distance(all[idx[a]][0], all[idx[a]][1]), rg.Distance(all[idx[b]][0], all[idx[b]][1])
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
	if n > len(all) {
		n = len(all)
	}
	ps := make([][2]int, n)
	for i := 0; i < n; i++ {
		ps[i] = all[idx[i]]
	}
	return ps
}

func benchSelect(b *testing.B, sel Selector, alpha float64, pairs int) {
	net, err := topology.Grid(8, 8, 100e6)
	if err != nil {
		b.Fatal(err)
	}
	m := delay.NewModel(net)
	req := Request{Class: traffic.Voice(), Alpha: alpha, Pairs: benchGridPairs(net, pairs)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sel.Select(m, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectLookahead is the headline selection benchmark: the
// paper's lookahead heuristic with k=6 candidates per pair over the 24
// longest pairs of an 8×8 grid.
func BenchmarkSelectLookahead(b *testing.B) {
	benchSelect(b, Heuristic{K: 6}, 0.10, 24)
}

// BenchmarkSelectCheap measures the first-accept scan.
func BenchmarkSelectCheap(b *testing.B) {
	benchSelect(b, Heuristic{K: 6, Mode: Cheap}, 0.10, 24)
}

// BenchmarkSelectPortfolio runs the portfolio members in turn over one
// shared engine and memoized candidate generation.
func BenchmarkSelectPortfolio(b *testing.B) {
	benchSelect(b, Portfolio{}, 0.10, 24)
}

// benchSelectMCI times one selector over every ordered MCI pair at
// α 0.40 — the route-selection half of what ubacd runs at boot.
func benchSelectMCI(b *testing.B, sel Selector) {
	m := delay.NewModel(topology.MCI())
	req := Request{Class: traffic.Voice(), Alpha: 0.40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, rep, err := sel.Select(m, req); err != nil || !rep.Safe {
			b.Fatalf("rep=%+v err=%v", rep, err)
		}
	}
}

// BenchmarkSelectDelayWeighted is the delay-weighted lookahead member
// alone: Yen's algorithm over the current delay vector for every pair,
// then a phantom fixed-point solve per candidate its slack bound cannot
// rule out.
func BenchmarkSelectDelayWeighted(b *testing.B) {
	benchSelectMCI(b, Heuristic{DelayWeighted: true})
}

// BenchmarkSelectPortfolioMCI is ubacd's default selector at its default
// operating point (the delay-weighted member wins there).
func BenchmarkSelectPortfolioMCI(b *testing.B) {
	benchSelectMCI(b, Portfolio{})
}
