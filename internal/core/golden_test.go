package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"ubac/internal/admission"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
)

// A -data-dir carries the controller fingerprint of the configuration
// that wrote it, and recovery refuses a log whose fingerprint differs
// (wal.ErrFingerprintMismatch). The fingerprint covers the selected
// routes, so any drift in route selection — a reordered tie in the
// weighted Yen, a float sum taken in another order — makes every
// existing data dir refuse to boot. This pins ubacd's own default
// configuration (MCI, voice at α 0.40, the default portfolio selection).
//
// The constant is amd64's: a compiler that fuses multiply-adds (arm64,
// ppc64, s390x) may break float ties differently, so other
// architectures skip.
func TestGoldenMCIFingerprintPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprint pinned on amd64; FMA fusing may move float ties elsewhere")
	}
	const want = 0xfdbd070e98187a73
	sys := voiceSystem(t, topology.MCI())
	dep, err := sys.Configure(map[string]float64{"voice": 0.40})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Fingerprint(); got != want {
		t.Fatalf("fingerprint %#016x, pinned %#016x: route selection drifted, existing data dirs will refuse to boot", got, uint64(want))
	}
}

// fixedPointCounter counts fixed-point solves and discards the rest.
type fixedPointCounter struct {
	telemetry.Nop
	solves atomic.Int64
}

func (c *fixedPointCounter) FixedPoint(telemetry.FixedPoint) { c.solves.Add(1) }

// TestLookaheadSolveCount pins how many fixed-point solves ubacd's
// default configuration runs: the winning delay-weighted lookahead
// considers 2,284 candidates and solves only those its slack bound
// cannot rule out, then the Figure 2 verification solves once. A change
// in the count is a change in what the bound rules out.
func TestLookaheadSolveCount(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("count pinned on amd64; FMA fusing may move float ties elsewhere")
	}
	const considered, want = 2284, 412
	sys := voiceSystem(t, topology.MCI())
	sink := &fixedPointCounter{}
	sys.Model().Sink = sink
	dep, err := sys.Configure(map[string]float64{"voice": 0.40})
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.Reports[0].CandidatesTried; got != considered {
		t.Errorf("candidates considered %d, pinned %d", got, considered)
	}
	if got := sink.solves.Load(); got != want {
		t.Errorf("fixed-point solves %d, pinned %d", got, want)
	}
}
