package delay

import (
	"math"
	"testing"

	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// A single route over a line topology is the feedback-free chain of
// DESIGN.md §A.4: d_k = gT(1+gρ)^{k−1}, so the end-to-end sum
// telescopes to (T/ρ)((1+gρ)^L − 1). The solver must reproduce this
// analytic solution, which pins the closed form g = α(N−1)/(ρ(N−α))
// against refactors.
func TestGoldenLineGeometricClosedForm(t *testing.T) {
	voice := traffic.Voice()
	burst, rho := voice.Bucket.Burst, voice.Bucket.Rate
	for _, nRouters := range []int{3, 5, 9} {
		for _, alpha := range []float64{0.15, 0.40, 0.75} {
			net, err := topology.Line(nRouters, 45e6)
			if err != nil {
				t.Fatal(err)
			}
			path := make([]int, nRouters)
			for i := range path {
				path[i] = i
			}
			r, err := routes.FromRouterPath(net, "voice", path)
			if err != nil {
				t.Fatal(err)
			}
			set := routes.NewSet(net)
			if err := set.Add(r); err != nil {
				t.Fatal(err)
			}
			in := ClassInput{Class: voice, Alpha: alpha, Routes: set}
			m := NewModel(net)
			res, err := m.SolveTwoClass(in)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("line:%d alpha=%.2f: did not converge", nRouters, alpha)
			}
			g := Gain(alpha, rho, m.serverN(0))
			hop := g * burst // d_1 = gT
			for k, s := range r.Servers {
				want := hop * math.Pow(1+g*rho, float64(k))
				if math.Abs(res.D[s]-want) > 1e-9*math.Max(1, want) {
					t.Fatalf("line:%d alpha=%.2f hop %d: d=%.17g, closed form %.17g",
						nRouters, alpha, k, res.D[s], want)
				}
			}
			L := float64(r.Hops())
			wantSum := (burst / rho) * (math.Pow(1+g*rho, L) - 1)
			if got := r.Delay(res.D); math.Abs(got-wantSum) > 1e-9*math.Max(1, wantSum) {
				t.Fatalf("line:%d alpha=%.2f: route sum %.17g, telescoped form %.17g",
					nRouters, alpha, got, wantSum)
			}
		}
	}
}
