package bounds

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperParams is the Table 1 scenario: MCI backbone (N=6, L=4), VoIP
// traffic (T=640 bits, ρ=32 kb/s), 100 ms deadline.
func paperParams() Params {
	return Params{N: 6, L: 4, Burst: 640, Rate: 32e3, Deadline: 0.1}
}

func TestTable1LowerBound(t *testing.T) {
	lb, err := Lower(paperParams())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 0.30 (Table 1).
	if math.Abs(lb-0.30) > 0.005 {
		t.Errorf("lower bound = %.4f, paper reports 0.30", lb)
	}
}

func TestTable1UpperBound(t *testing.T) {
	ub, err := Upper(paperParams())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 0.61 (Table 1).
	if math.Abs(ub-0.61) > 0.005 {
		t.Errorf("upper bound = %.4f, paper reports 0.61", ub)
	}
}

func TestBoundsTogether(t *testing.T) {
	lb, ub, err := Bounds(paperParams())
	if err != nil {
		t.Fatal(err)
	}
	if lb >= ub {
		t.Errorf("lower %g >= upper %g", lb, ub)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{N: 1, L: 4, Burst: 640, Rate: 32e3, Deadline: 0.1},
		{N: 6, L: 0, Burst: 640, Rate: 32e3, Deadline: 0.1},
		{N: 6, L: 4, Burst: -1, Rate: 32e3, Deadline: 0.1},
		{N: 6, L: 4, Burst: 640, Rate: 0, Deadline: 0.1},
		{N: 6, L: 4, Burst: 640, Rate: 32e3, Deadline: 0},
		{N: 6, L: 4, Burst: 640, Rate: 32e3, Deadline: math.Inf(1)},
		{N: 6, L: 4, Burst: math.NaN(), Rate: 32e3, Deadline: 0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
		if _, err := Lower(p); err == nil {
			t.Errorf("Lower accepted case %d", i)
		}
		if _, err := Upper(p); err == nil {
			t.Errorf("Upper accepted case %d", i)
		}
		if _, _, err := Bounds(p); err == nil {
			t.Errorf("Bounds accepted case %d", i)
		}
	}
}

func TestUpperZeroBurst(t *testing.T) {
	p := paperParams()
	p.Burst = 0
	ub, err := Upper(p)
	if err != nil || ub != 1 {
		t.Errorf("zero burst upper = %g, %v; want 1", ub, err)
	}
}

// Property: 0 < lower <= upper <= 1 across the whole parameter space.
func TestBoundsOrderedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{
			N:        2 + rng.Intn(15),
			L:        1 + rng.Intn(9),
			Burst:    10 + rng.Float64()*1e5,
			Rate:     1e3 + rng.Float64()*1e7,
			Deadline: 1e-3 + rng.Float64(),
		}
		lb, ub, err := Bounds(p)
		if err != nil {
			return false
		}
		return lb > 0 && lb <= ub+1e-12 && ub <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: both bounds increase with the deadline and decrease with the
// diameter (more slack per hop ⇒ more admissible utilization).
func TestBoundsMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{
			N:        2 + rng.Intn(10),
			L:        2 + rng.Intn(6),
			Burst:    10 + rng.Float64()*1e4,
			Rate:     1e3 + rng.Float64()*1e6,
			Deadline: 0.01 + rng.Float64()*0.2,
		}
		lb1, ub1, err := Bounds(p)
		if err != nil {
			return false
		}
		longer := p
		longer.Deadline *= 1.5
		lb2, ub2, err := Bounds(longer)
		if err != nil {
			return false
		}
		if lb2 < lb1-1e-12 || ub2 < ub1-1e-12 {
			return false
		}
		wider := p
		wider.L++
		lb3, ub3, err := Bounds(wider)
		if err != nil {
			return false
		}
		return lb3 <= lb1+1e-12 && ub3 <= ub1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLowerBoundSingleHop(t *testing.T) {
	// L = 1: β = Dρ/T, no upstream jitter term.
	p := Params{N: 4, L: 1, Burst: 1000, Rate: 1e4, Deadline: 0.05}
	lb, err := Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	beta := 0.05 * 1e4 / 1000
	want := 4 * beta / (3 + beta)
	if beta >= 1 {
		// alphaFromGainRho clamps at 1.
		want = math.Min(want, 1)
	}
	if math.Abs(lb-want) > 1e-12 {
		t.Errorf("L=1 lower = %g, want %g", lb, want)
	}
}

func BenchmarkBounds(b *testing.B) {
	p := paperParams()
	for i := 0; i < b.N; i++ {
		if _, _, err := Bounds(p); err != nil {
			b.Fatal(err)
		}
	}
}
