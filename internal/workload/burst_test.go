package workload

import (
	"math"
	"math/rand"
	"testing"
)

var burstPairs = [][2]int{{0, 1}, {1, 2}, {2, 0}}

// burstyCfg is a strongly bursty on-off process: 50 calls/s bursts of
// ~2 s mean separated by ~8 s silent gaps (mean rate 10 calls/s).
func burstyCfg() MMPPConfig {
	return MMPPConfig{HighRate: 50, LowRate: 0, MeanHigh: 2, MeanLow: 8}
}

func TestMMPPConfigValidate(t *testing.T) {
	bad := []MMPPConfig{
		{HighRate: 0, LowRate: 0, MeanHigh: 1, MeanLow: 1},
		{HighRate: -1, LowRate: 0, MeanHigh: 1, MeanLow: 1},
		{HighRate: math.NaN(), LowRate: 0, MeanHigh: 1, MeanLow: 1},
		{HighRate: 10, LowRate: -1, MeanHigh: 1, MeanLow: 1},
		{HighRate: 10, LowRate: 20, MeanHigh: 1, MeanLow: 1},
		{HighRate: 10, LowRate: 1, MeanHigh: 0, MeanLow: 1},
		{HighRate: 10, LowRate: 1, MeanHigh: 1, MeanLow: math.Inf(1)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, cfg)
		}
	}
	if err := burstyCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMMPPSource(burstyCfg(), 0, burstPairs, 1, rng); err == nil {
		t.Error("zero holding validated")
	}
	if _, err := NewMMPPSource(burstyCfg(), 1, nil, 1, rng); err == nil {
		t.Error("empty pairs validated")
	}
	if _, err := NewMMPPSource(burstyCfg(), 1, [][2]int{{3, 3}}, 1, rng); err == nil {
		t.Error("self pair validated")
	}
}

func TestMMPPAnalytics(t *testing.T) {
	cfg := burstyCfg()
	// High state holds 2/(2+8) of the time → mean rate 50 * 0.2 = 10.
	if got := cfg.MeanRate(); math.Abs(got-10) > 1e-12 {
		t.Errorf("mean rate = %g, want 10", got)
	}
	// IDC = 1 + 2·p1·p0·Δ²/(λ̄·(q1+q0)) = 1 + 2·0.2·0.8·2500/(10·0.625) = 129.
	want := 1 + 2*0.2*0.8*2500/(10*0.625)
	if got := cfg.IDC(); math.Abs(got-want) > 1e-9 {
		t.Errorf("IDC = %g, want %g", got, want)
	}
	// A degenerate MMPP (equal rates) is Poisson: IDC exactly 1.
	flat := MMPPConfig{HighRate: 10, LowRate: 10, MeanHigh: 1, MeanLow: 1}
	if got := flat.IDC(); math.Abs(got-1) > 1e-12 {
		t.Errorf("flat IDC = %g, want 1", got)
	}
}

// TestMMPPBurstiness checks the generated process is empirically
// bursty (interarrival CV well above 1) while a Poisson generator at
// the same mean rate measures CV ≈ 1, and that the realized mean rate
// matches the analytic one.
func TestMMPPBurstiness(t *testing.T) {
	const horizon = 2000.0
	src, err := NewMMPPSource(burstyCfg(), 0.1, burstPairs, horizon, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	calls := Collect(src)
	// Count variance is IDC·λ̄·T ≈ 129·20000, so the realized rate has
	// σ ≈ 0.8 calls/s; allow ~3σ around the analytic mean of 10.
	rate := float64(len(calls)) / horizon
	if math.Abs(rate-10) > 2.5 {
		t.Errorf("realized rate %g, want ≈ 10", rate)
	}
	if cv := InterarrivalCV(calls); cv < 2 {
		t.Errorf("bursty CV = %g, want well above 1", cv)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i].Arrive < calls[i-1].Arrive {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}

	pg, err := NewGenerator(10, 0.1, burstPairs, 42)
	if err != nil {
		t.Fatal(err)
	}
	if cv := InterarrivalCV(pg.Generate(horizon)); cv < 0.9 || cv > 1.1 {
		t.Errorf("poisson CV = %g, want ≈ 1", cv)
	}
}

// TestMMPPDeterminism: identical seeds replay identically; different
// seeds diverge.
func TestMMPPDeterminism(t *testing.T) {
	gen := func(seed int64) []Call {
		src, err := NewMMPPSource(burstyCfg(), 0.1, burstPairs, 100, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return Collect(src)
	}
	a, b := gen(7), gen(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := gen(8)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical workloads")
		}
	}
}

func TestApplyMix(t *testing.T) {
	g, err := NewGenerator(50, 0.1, burstPairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	calls := g.Generate(200) // ~10k calls
	mix := []MixEntry{
		{Class: "voice", Tenant: "gold", Weight: 1},
		{Class: "voice", Tenant: "silver", Weight: 2},
		{Class: "voice", Tenant: "bronze", Weight: 7},
	}
	if err := ApplyMix(calls, mix, 11); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, c := range calls {
		if c.Class != "voice" {
			t.Fatalf("class = %q", c.Class)
		}
		counts[c.Tenant]++
	}
	n := float64(len(calls))
	for tenant, want := range map[string]float64{"gold": 0.1, "silver": 0.2, "bronze": 0.7} {
		got := float64(counts[tenant]) / n
		if math.Abs(got-want) > 0.03 {
			t.Errorf("tenant %s share = %.3f, want ≈ %.1f", tenant, got, want)
		}
	}

	// Deterministic under the seed.
	copies := append([]Call(nil), calls...)
	for i := range copies {
		copies[i].Class, copies[i].Tenant = "", ""
	}
	if err := ApplyMix(copies, mix, 11); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if calls[i].Tenant != copies[i].Tenant {
			t.Fatalf("mix not deterministic at call %d", i)
		}
	}

	// Invalid mixes are rejected.
	if err := ApplyMix(calls, nil, 1); err == nil {
		t.Error("empty mix accepted")
	}
	if err := ApplyMix(calls, []MixEntry{{Class: "voice", Weight: 0}}, 1); err == nil {
		t.Error("zero weight accepted")
	}
	if err := ApplyMix(calls, []MixEntry{{Weight: 1}}, 1); err == nil {
		t.Error("classless entry accepted")
	}
}

// capAdmitter admits up to cap concurrent calls, rejecting tenant
// "blocked" outright — enough structure to check the per-tier split.
type capAdmitter struct {
	cap    int
	live   map[uint64]bool
	nextID uint64
}

func (a *capAdmitter) TryAdmitTier(class, tenant string, src, dst int) (uint64, bool) {
	if tenant == "blocked" || len(a.live) >= a.cap {
		return 0, false
	}
	a.nextID++
	a.live[a.nextID] = true
	return a.nextID, true
}

func (a *capAdmitter) Release(h uint64) { delete(a.live, h) }

func TestReplayTiered(t *testing.T) {
	g, err := NewGenerator(20, 0.5, burstPairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	calls := g.Generate(100)
	mix := []MixEntry{
		{Class: "voice", Tenant: "ok", Weight: 3},
		{Class: "voice", Tenant: "blocked", Weight: 1},
	}
	if err := ApplyMix(calls, mix, 9); err != nil {
		t.Fatal(err)
	}
	adm := &capAdmitter{cap: 8, live: map[uint64]bool{}}
	st, tiers := ReplayTiered(Schedule(calls), calls, adm)
	if st.Offered != len(calls) {
		t.Fatalf("offered %d, want %d", st.Offered, len(calls))
	}
	if st.Admitted+st.Blocked != st.Offered {
		t.Fatalf("outcomes don't sum: %+v", st)
	}
	if len(adm.live) != 0 {
		t.Fatalf("%d calls leaked after drain", len(adm.live))
	}
	var sum BlockingStats
	for _, ts := range tiers {
		sum.Offered += ts.Offered
		sum.Admitted += ts.Admitted
		sum.Blocked += ts.Blocked
	}
	if sum != st {
		t.Fatalf("tier stats %+v don't sum to overall %+v", sum, st)
	}
	bl := tiers["blocked"]
	if bl == nil || bl.Admitted != 0 || bl.Blocking() != 1 {
		t.Fatalf("blocked tier = %+v, want total blocking", bl)
	}
	okT := tiers["ok"]
	if okT == nil || okT.Admitted == 0 {
		t.Fatalf("ok tier = %+v, want admissions", okT)
	}
	if okT.Blocking() >= 1 || okT.Blocking() <= 0 {
		// cap 8 against ~10 Erlangs of "ok" load guarantees partial blocking.
		t.Errorf("ok tier blocking = %g, want in (0,1)", okT.Blocking())
	}
}
