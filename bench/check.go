package main

import (
	"fmt"
	"sync/atomic"
)

// shadow is the bench's own ledger of what the daemon must be holding,
// kept from the frames the load generator sent and the verdicts it got
// back. It answers two questions the daemon cannot be trusted to answer
// about itself:
//
//   - Safety: did acknowledged flows ever exceed a (class, server)
//     limit? held[s] counts flows whose admit was acknowledged and
//     whose teardown has not been sent — a lower bound on what the
//     daemon holds — so held[s] > caps[s] is an over-admission.
//   - Spurious rejects: was a flow refused although there was room?
//     occ[s] counts every flow that may be in the daemon — admits in
//     flight, acknowledged flows, teardowns not yet acknowledged — an
//     upper bound. A reject is legitimate only if some server on the
//     route was above its limit by that upper bound at some moment
//     while the admit was in flight; otherwise even the worst
//     interleaving of everything in flight left room for it.
//
// All methods are safe for concurrent use by the load generator's
// goroutines; each passes its own scratch (see newScratch).
type shadow struct {
	paths [][]int
	caps  []int64

	occ  []atomic.Int64
	held []atomic.Int64
	// lastFull[s] is the latest time (ns, monotonic since the run's
	// origin) at which occ[s] was seen above caps[s].
	lastFull []atomic.Int64

	overAdmits atomic.Uint64 // held[s] observed above caps[s]
	negative   atomic.Uint64 // a counter went below zero: harness bug
}

func newShadow(d *deployment) *shadow {
	n := len(d.caps)
	sh := &shadow{
		paths:    d.paths,
		caps:     d.caps,
		occ:      make([]atomic.Int64, n),
		held:     make([]atomic.Int64, n),
		lastFull: make([]atomic.Int64, n),
	}
	for s := range sh.lastFull {
		sh.lastFull[s].Store(-1)
	}
	return sh
}

// scratch is one goroutine's per-server delta buffer: a 64-op frame
// touches each hub server many times, so deltas are summed locally and
// applied with one atomic add per touched server.
type scratch struct {
	delta   []int64
	touched []int
}

func (sh *shadow) newScratch() *scratch {
	return &scratch{delta: make([]int64, len(sh.caps))}
}

func (sc *scratch) add(path []int, d int64) {
	for _, s := range path {
		if sc.delta[s] == 0 {
			sc.touched = append(sc.touched, s)
		}
		sc.delta[s] += d
	}
}

// flush applies the summed deltas to arr and returns with sc empty.
// When full is set the over-limit stamp is maintained (occ only).
func (sh *shadow) flush(sc *scratch, arr []atomic.Int64, now int64, full bool) {
	for _, s := range sc.touched {
		d := sc.delta[s]
		sc.delta[s] = 0
		if d == 0 {
			continue
		}
		nu := arr[s].Add(d)
		if nu < 0 {
			sh.negative.Add(1)
		}
		if full {
			// Above the limit now (after an increment) or until now
			// (before a decrement): either way it was full at `now`.
			if nu > sh.caps[s] || nu-d > sh.caps[s] {
				storeMax(&sh.lastFull[s], now)
			}
		} else if d > 0 && nu > sh.caps[s] {
			sh.overAdmits.Add(1)
		}
	}
	sc.touched = sc.touched[:0]
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// sendAdmits records that admits for these routes are about to go on
// the wire at time now.
func (sh *shadow) sendAdmits(sc *scratch, routes []int32, now int64) {
	for _, r := range routes {
		sc.add(sh.paths[r], 1)
	}
	sh.flush(sc, sh.occ, now, true)
}

// admitVerdicts records the verdicts of a frame sent at sentAt:
// admitted[i] says whether routes[i] was admitted. It returns how many
// of the rejects were spurious.
func (sh *shadow) admitVerdicts(sc *scratch, routes []int32, admitted []bool, sentAt, now int64) (spurious int) {
	for i, r := range routes {
		if !admitted[i] && !sh.wasFull(r, sentAt) {
			spurious++
		}
	}
	for i, r := range routes {
		if !admitted[i] {
			sc.add(sh.paths[r], -1)
		}
	}
	sh.flush(sc, sh.occ, now, true)
	for i, r := range routes {
		if admitted[i] {
			sc.add(sh.paths[r], 1)
		}
	}
	sh.flush(sc, sh.held, now, false)
	return spurious
}

// wasFull reports whether some server of route r was above its limit,
// by the upper-bound ledger, at any moment since sentAt.
func (sh *shadow) wasFull(r int32, sentAt int64) bool {
	for _, s := range sh.paths[r] {
		if sh.occ[s].Load() > sh.caps[s] || sh.lastFull[s].Load() >= sentAt {
			return true
		}
	}
	return false
}

// abortAdmits forgets admits whose frame failed in transport.
func (sh *shadow) abortAdmits(sc *scratch, routes []int32, now int64) {
	for _, r := range routes {
		sc.add(sh.paths[r], -1)
	}
	sh.flush(sc, sh.occ, now, true)
}

// sendTeardowns records that teardowns for flows on these routes are
// about to go on the wire: they stop counting as certainly held.
func (sh *shadow) sendTeardowns(sc *scratch, routes []int32, now int64) {
	for _, r := range routes {
		sc.add(sh.paths[r], -1)
	}
	sh.flush(sc, sh.held, now, false)
}

// teardownsDone records acknowledged teardowns: the flows are gone.
func (sh *shadow) teardownsDone(sc *scratch, routes []int32, now int64) {
	for _, r := range routes {
		sc.add(sh.paths[r], -1)
	}
	sh.flush(sc, sh.occ, now, true)
}

// residue returns the flows the upper-bound ledger still counts.
func (sh *shadow) residue() int64 {
	var n int64
	for s := range sh.occ {
		n += sh.occ[s].Load()
	}
	return n
}

// opCounts is what one run attempted and what came of it. An op is one
// admit request or one teardown.
//
// Two kinds of outcome count against a run. Failed ops got no usable
// answer at all — lost in transport, answered with a status no
// well-formed request can earn, or never sent; on a healthy tree there
// are none, and they are what the result line's `failed` carries.
// Spurious rejects got a well-formed answer that was wrong in the
// conservative direction: refused although the shadow ledger had room.
// They are a property of the daemon (lease hoarding, claim races), they
// do occur on the seed, and they are gated through ok_ratio rather than
// `failed`, whose run-to-run count would otherwise be noise.
type opCounts struct {
	Attempted uint64 `json:"attempted"`
	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"` // capacity verdicts, legitimate or not
	Teardowns uint64 `json:"teardowns"`

	Transport  uint64 `json:"transport_errors"` // frame lost, timed out or answered with a protocol error
	BadVerdict uint64 `json:"bad_verdicts"`     // a status no well-formed request can earn (unknown flow on a held id, no_route on a configured pair, ...)
	Dropped    uint64 `json:"dropped_late_ops"` // open loop: never sent because the generator fell hopelessly behind
	Spurious   uint64 `json:"spurious_rejects"` // refused although the shadow ledger had room
}

func (c *opCounts) add(o opCounts) {
	c.Attempted += o.Attempted
	c.Admitted += o.Admitted
	c.Rejected += o.Rejected
	c.Teardowns += o.Teardowns
	c.Transport += o.Transport
	c.Spurious += o.Spurious
	c.BadVerdict += o.BadVerdict
	c.Dropped += o.Dropped
}

// failed counts the ops that got no usable answer.
func (c opCounts) failed() uint64 { return c.Transport + c.BadVerdict + c.Dropped }

// failRatio is the share of attempted ops that failed or were
// spuriously rejected; ok_ratio is its complement.
func (c opCounts) failRatio() float64 {
	if c.Attempted == 0 {
		return 0
	}
	return float64(c.failed()+c.Spurious) / float64(c.Attempted)
}

// checks collects the state checks of one run. Any entry in Violations
// makes the run incorrect and the command exit non-zero.
type checks struct {
	Violations []string `json:"violations"`
}

func (k *checks) failf(format string, args ...any) {
	k.Violations = append(k.Violations, fmt.Sprintf(format, args...))
}

// checkShadow folds the shadow ledger's own findings into k once the
// run has drained.
func (k *checks) checkShadow(sh *shadow) {
	if n := sh.overAdmits.Load(); n > 0 {
		k.failf("safety: acknowledged flows exceeded a (class, server) limit %d times", n)
	}
	if n := sh.negative.Load(); n > 0 {
		k.failf("harness: shadow ledger went negative %d times", n)
	}
	if n := sh.residue(); n != 0 {
		k.failf("harness: shadow ledger holds %d flow-hops after the drain", n)
	}
}

// checkOracle compares the measured reject ratio of the open-loop
// schedule with the exact-walk oracle's.
func (k *checks) checkOracle(measured, oracle float64) {
	const tolerance = 0.01
	if d := measured - oracle; d > tolerance || d < -tolerance {
		k.failf("oracle: reject ratio %.4f differs from the exact-walk oracle's %.4f by more than %.2f", measured, oracle, tolerance)
	}
}

// checkLeak compares the daemon's post-drain state with its pre-run
// state.
func (k *checks) checkLeak(activeFlows int64, headroomBefore, headroomAfter int) {
	if activeFlows != 0 {
		k.failf("leak: the daemon reports %d active flows after the drain", activeFlows)
	}
	if headroomAfter != headroomBefore {
		k.failf("leak: probe-route headroom %d after the drain, %d before the run", headroomAfter, headroomBefore)
	}
}

// checkRecovered judges the SIGKILL-restart pass: every id held at the
// kill must tear down or be unknown, and nothing may be left behind.
func (k *checks) checkRecovered(held, tornDown, unknown, other int, ghostSlots int64) {
	if other > 0 || tornDown+unknown != held {
		k.failf("recovery: of %d held ids, %d tore down, %d were unknown, %d answered something else", held, tornDown, unknown, other)
	}
	if ghostSlots != 0 {
		k.failf("recovery: the ledger is %d flow slots short of idle after tearing down every held id (ghost flows)", ghostSlots)
	}
}
