package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSinkDecision is the per-decision telemetry cost every
// admission pays when a sink is installed — the daemon-side overhead
// on top of the admission test itself, so it has to stay far below
// the ~90 ns admit.
func BenchmarkSinkDecision(b *testing.B) {
	s := NewRegistrySink(NewRegistry(), NewRing(4096))
	d := Decision{
		FlowID:  1,
		Class:   "voice",
		Src:     3,
		Dst:     7,
		Rate:    64_000,
		Verdict: Admitted,
		Latency: 250 * time.Nanosecond,
		When:    time.Now(), // the controller always passes its clock read
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.FlowID = uint64(i)
		s.Decision(d)
	}
}

// BenchmarkSinkDecisionRun is the same decision reported the way the
// batch paths report it: n at a time. ns/op is per decision, so n=1
// prices the run entry against BenchmarkSinkDecision and n=64 is what a
// coalesced wire batch pays.
func BenchmarkSinkDecisionRun(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := NewRegistrySink(NewRegistry(), NewRing(4096))
			now := time.Now()
			run := make([]Decision, n)
			for i := range run {
				run[i] = Decision{
					FlowID:  uint64(i + 1),
					Class:   "voice",
					Src:     3,
					Dst:     7,
					Rate:    64_000,
					Verdict: Admitted,
					Latency: 250 * time.Nanosecond,
					When:    now,
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i += n {
				s.DecisionRun(run)
			}
		})
	}
}

// BenchmarkRingAppend isolates the audit ring's share of the decision
// path.
func BenchmarkRingAppend(b *testing.B) {
	r := NewRing(4096)
	rec := record{Class: "voice", Src: 3, Dst: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.FlowID = uint64(i)
		r.add(rec)
	}
}
