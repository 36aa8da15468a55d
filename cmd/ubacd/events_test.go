package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ubac/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestEventsGolden pins the /v1/events body byte for byte: every
// verdict and reason, a tenant, a class name the deployment does not
// configure, unresolved routers and a named bottleneck, recorded both
// singly and as a run. The ring's storage may change; what it serves
// may not.
func TestEventsGolden(t *testing.T) {
	ts, _, sink := testDaemonFull(t)
	when := time.Unix(1_700_000_000, 123_456_789)
	d := func(v telemetry.Verdict, id uint64, class, tenant string, src, dst, bottleneck int) telemetry.Decision {
		return telemetry.Decision{FlowID: id, Class: class, Tenant: tenant, Src: src, Dst: dst,
			Rate: 32e3, Verdict: v, Bottleneck: bottleneck, Latency: 850 * time.Nanosecond, When: when}
	}
	sink.Decision(d(telemetry.Admitted, 4294967335, "voice", "tenant-a", 0, 3, -1))
	sink.Decision(d(telemetry.RejectedCapacity, 0, "voice", "", 0, 3, 5))
	sink.DecisionRun([]telemetry.Decision{
		d(telemetry.RejectedNoRoute, 0, "voice", "", 2, 2, -1),
		d(telemetry.RejectedUnknownClass, 0, "nope", "tenant-b", -1, -1, -1),
		d(telemetry.RejectedPolicyRate, 0, "voice", "tenant-a", 1, 4, -1),
		d(telemetry.RejectedPolicyShed, 0, "voice", "tenant-b", 1, 4, -1),
		d(telemetry.RejectedPolicyReserve, 0, "voice", "", 4, 1, -1),
		d(telemetry.TornDown, 4294967335, "voice", "tenant-a", 0, 3, -1),
	})

	resp, err := http.Get(ts.URL + "/v1/events?limit=20")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "events_golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/v1/events body differs from %s:\ngot:  %s\nwant: %s", path, got, want)
	}
}
