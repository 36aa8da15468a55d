package workload

import (
	"math"
	"math/rand"
	"testing"
)

var streamPairs = [][2]int{{0, 1}, {1, 2}, {2, 0}}

// drain pulls the whole stream.
func drain(t *testing.T, s Source) []Call {
	t.Helper()
	var calls []Call
	for {
		c, ok := s.Next()
		if !ok {
			// Exhausted sources must stay exhausted.
			if _, again := s.Next(); again {
				t.Fatal("source yielded after reporting exhaustion")
			}
			return calls
		}
		calls = append(calls, c)
	}
}

// The streaming Poisson source must reproduce the batch generator's
// stream draw for draw from the same seed — the property that lets the
// scale simulator stream arrivals without changing any experiment's
// workload.
func TestPoissonSourceMatchesGenerator(t *testing.T) {
	const seed, horizon = 77, 50.0
	g, err := NewGenerator(12, 0.5, streamPairs, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Generate(horizon)
	s, err := NewPoissonSource(12, 0.5, streamPairs, horizon, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, s)
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d calls, batch %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("call %d differs: stream %+v batch %+v", i, got[i], want[i])
		}
	}
	if s.OfferedLoad() != g.OfferedLoad() {
		t.Errorf("offered load %g vs %g", s.OfferedLoad(), g.OfferedLoad())
	}
}

// Same property for the MMPP source, whose batch form is Collect.
func TestMMPPSourceMatchesGenerator(t *testing.T) {
	cfg := MMPPConfig{HighRate: 40, LowRate: 2, MeanHigh: 1.5, MeanLow: 4}
	const seed, horizon = 13, 120.0
	batch, err := NewMMPPSource(cfg, 2, streamPairs, horizon, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(batch)
	s, err := NewMMPPSource(cfg, 2, streamPairs, horizon, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, s)
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d calls, batch %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("call %d differs: stream %+v batch %+v", i, got[i], want[i])
		}
	}
	if len(got) < 100 {
		t.Fatalf("window too quiet to be a meaningful test: %d calls", len(got))
	}
}

// A pure on-off source (LowRate = 0) must stream through its silent
// states without stalling.
func TestOnOffSourceSilentStates(t *testing.T) {
	cfg := MMPPConfig{HighRate: 30, LowRate: 0, MeanHigh: 1, MeanLow: 1}
	s, err := NewMMPPSource(cfg, 1, streamPairs, 60, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	calls := drain(t, s)
	if len(calls) < 100 {
		t.Fatalf("on-off source yielded only %d calls", len(calls))
	}
	for i := 1; i < len(calls); i++ {
		if calls[i].Arrive < calls[i-1].Arrive {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestSourceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewPoissonSource(0, 1, streamPairs, 10, rng); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewPoissonSource(1, 0, streamPairs, 10, rng); err == nil {
		t.Error("zero holding accepted")
	}
	if _, err := NewPoissonSource(1, 1, streamPairs, 0, rng); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := NewPoissonSource(1, 1, nil, 10, rng); err == nil {
		t.Error("empty pairs accepted")
	}
	if _, err := NewPoissonSource(1, 1, [][2]int{{2, 2}}, 10, rng); err == nil {
		t.Error("self pair accepted")
	}
	if _, err := NewPoissonSource(1, 1, streamPairs, 10, nil); err == nil {
		t.Error("nil rng accepted")
	}
	cfg := MMPPConfig{HighRate: 10, LowRate: 0, MeanHigh: 1, MeanLow: 1}
	if _, err := NewMMPPSource(MMPPConfig{}, 1, streamPairs, 10, rng); err == nil {
		t.Error("invalid mmpp config accepted")
	}
	if _, err := NewMMPPSource(cfg, -1, streamPairs, 10, rng); err == nil {
		t.Error("negative holding accepted")
	}
	if _, err := NewMMPPSource(cfg, 1, streamPairs, 10, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

// A horizon that is not positive and finite yields no calls from the
// Poisson generator and is refused by the MMPP source: a draw loop run
// against NaN or +Inf never ends.
func TestGenerateRefusesBadHorizon(t *testing.T) {
	g, err := NewGenerator(12, 0.5, streamPairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if calls := g.Generate(h); len(calls) != 0 {
			t.Errorf("Poisson Generate(%g): %d calls, want none", h, len(calls))
		}
		cfg := MMPPConfig{HighRate: 40, LowRate: 2, MeanHigh: 1.5, MeanLow: 4}
		if _, err := NewMMPPSource(cfg, 2, streamPairs, h, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("MMPP source accepted horizon %g", h)
		}
	}
}
