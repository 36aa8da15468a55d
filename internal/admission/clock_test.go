package admission

import (
	"testing"
	"time"

	"ubac/internal/telemetry"
)

// TestSetClockDeterministicTimestamps pins the virtual-clock hook the
// discrete-event simulator relies on: with an injected clock, decision
// latencies on the audit ring are exact functions of the clock's
// sequence — two identically clocked controllers emit identical
// events, with no wall time anywhere in them.
func TestSetClockDeterministicTimestamps(t *testing.T) {
	run := func() []telemetry.Event {
		c, _ := testController(t, 0.3)
		ring := telemetry.NewRing(16)
		c.SetSink(telemetry.NewRegistrySink(telemetry.NewRegistry(), ring))
		// Each clock read advances virtual time by exactly 1 ms.
		var ticks int64
		c.SetClock(func() time.Time {
			ticks++
			return time.Unix(0, ticks*int64(time.Millisecond))
		})
		id, err := c.Admit("voice", 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Teardown(id); err != nil {
			t.Fatal(err)
		}
		evs := ring.Snapshot(16)
		if len(evs) != 2 {
			t.Fatalf("got %d audit events, want 2", len(evs))
		}
		return evs
	}
	a, b := run(), run()
	for i := range a {
		if a[i].LatencyNS != b[i].LatencyNS {
			t.Fatalf("event %d latency differs across identically clocked runs: %d vs %d",
				i, a[i].LatencyNS, b[i].LatencyNS)
		}
		if a[i].LatencyNS <= 0 || a[i].LatencyNS%int64(time.Millisecond) != 0 {
			t.Fatalf("event %d latency %dns is not a whole number of virtual ticks", i, a[i].LatencyNS)
		}
	}
}

// SetClock(nil) must restore the wall clock, not install a nil func.
func TestSetClockNilRestoresWallClock(t *testing.T) {
	c, _ := testController(t, 0.3)
	c.SetSink(telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewRing(4)))
	c.SetClock(nil)
	id, err := c.Admit("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Teardown(id); err != nil {
		t.Fatal(err)
	}
}
