package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ubac/internal/admission"
	"ubac/internal/core"
	"ubac/internal/policy"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
	"ubac/internal/wal"
	"ubac/internal/wire"
)

func testDaemon(t *testing.T) (*httptest.Server, *topology.Network) {
	ts, net, _ := testDaemonFull(t)
	return ts, net
}

// testDaemonFull mirrors main.go's wiring: registry + audit ring +
// sink attached to both the delay model (configuration step) and the
// run-time controller.
func testDaemonFull(t *testing.T) (*httptest.Server, *topology.Network, *telemetry.RegistrySink) {
	t.Helper()
	ts, net, _, sink := testDaemonOn(t, "")
	return ts, net, sink
}

// testDaemonOn is testDaemonFull with the controller handed back and,
// when dataDir is set, main.go's durability wiring: recover the
// directory, then journal to it in sync mode. The log stays open until
// the test ends: a daemon booted on the directory before that finds it
// as a killed one leaves it.
func testDaemonOn(t *testing.T, dataDir string) (*httptest.Server, *topology.Network, *admission.Controller, *telemetry.RegistrySink) {
	t.Helper()
	net, ctrl, reg, ring, sink := testDeployment(t)
	if dataDir != "" {
		rec, err := recoverState(ctrl, sink, dataDir)
		if err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(wal.Options{Dir: dataDir, Mode: wal.ModeSync,
			Fingerprint: ctrl.Fingerprint(), Epoch: rec.Epoch + 1})
		if err != nil {
			t.Fatal(err)
		}
		ctrl.SetJournal(log)
		t.Cleanup(func() { log.Close() })
	}
	ts := httptest.NewServer(newServer(net, ctrl, reg, ring).routes())
	t.Cleanup(ts.Close)
	return ts, net, ctrl, sink
}

// testDeployment configures NSFNet at voice α 0.30 with main.go's
// telemetry wiring: one registry, audit ring and sink for both the
// delay model (the configuration step) and the run-time controller.
func testDeployment(t *testing.T) (*topology.Network, *admission.Controller, *telemetry.Registry, *telemetry.Ring, *telemetry.RegistrySink) {
	t.Helper()
	net := topology.NSFNet(topology.DefaultCapacity)
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(net, classes)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(256)
	sink := telemetry.NewRegistrySink(reg, ring)
	sys.Model().Sink = sink
	dep, err := sys.Configure(map[string]float64{"voice": 0.30})
	if err != nil || !dep.Safe() {
		t.Fatalf("configure: %v", err)
	}
	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	sink.SetClasses(ctrl.Classes())
	ctrl.SetSink(sink)
	return net, ctrl, reg, ring, sink
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	return resp, out
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	return resp, out
}

func del(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestHealthz(t *testing.T) {
	ts, _ := testDaemon(t)
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz: %d %v", resp.StatusCode, body)
	}
}

// TestPprofServed: the runtime's profiles are on the daemon's own mux.
func TestPprofServed(t *testing.T) {
	ts, _ := testDaemon(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", resp.StatusCode)
	}
}

func TestAdmitTeardownLifecycle(t *testing.T) {
	ts, _ := testDaemon(t)
	resp, body := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Princeton"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: %d %v", resp.StatusCode, body)
	}
	id := uint64(body["id"].(float64))

	// Stats reflect the admission.
	_, stats := get(t, ts, "/v1/stats")
	if stats["Active"].(float64) != 1 {
		t.Errorf("active = %v", stats["Active"])
	}

	// Utilization on the first hop is one call's worth.
	resp, u := get(t, ts, "/v1/utilization?class=voice&link=Seattle-Champaign")
	if resp.StatusCode != http.StatusOK {
		// The route may use PaloAlto; check either adjacent link.
		resp, u = get(t, ts, "/v1/utilization?class=voice&link=Seattle-PaloAlto")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("utilization: %d %v", resp.StatusCode, u)
		}
	}

	if resp := del(t, ts, fmt.Sprintf("/v1/flows/%d", id)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("teardown: %d", resp.StatusCode)
	}
	if resp := del(t, ts, fmt.Sprintf("/v1/flows/%d", id)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("double teardown: %d", resp.StatusCode)
	}
}

func TestAdmitErrorsOverHTTP(t *testing.T) {
	ts, _ := testDaemon(t)
	cases := []struct {
		req  flowRequest
		want int
	}{
		{flowRequest{Class: "nope", Src: "Seattle", Dst: "Princeton"}, http.StatusNotFound},
		{flowRequest{Class: "voice", Src: "Gotham", Dst: "Princeton"}, http.StatusNotFound},
		{flowRequest{Class: "voice", Src: "Seattle", Dst: "Seattle"}, http.StatusNotFound},
	}
	for i, tc := range cases {
		resp, _ := post(t, ts, "/v1/flows", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("case %d: %d, want %d", i, resp.StatusCode, tc.want)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/flows", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: %d", resp.StatusCode)
	}
	// Bad flow id.
	if resp := del(t, ts, "/v1/flows/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: %d", resp.StatusCode)
	}
}

func TestCapacityConflictOverHTTP(t *testing.T) {
	ts, _ := testDaemon(t)
	// Numeric router IDs are accepted too.
	req := flowRequest{Class: "voice", Src: "0", Dst: "13"}
	admitted := 0
	for {
		resp, _ := post(t, ts, "/v1/flows", req)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
		admitted++
		if admitted > 20000 {
			t.Fatal("no capacity limit hit")
		}
	}
	// Headroom is now zero.
	resp, hr := get(t, ts, "/v1/headroom?class=voice&src=0&dst=13")
	if resp.StatusCode != http.StatusOK || hr["headroom"].(float64) != 0 {
		t.Errorf("headroom: %d %v", resp.StatusCode, hr)
	}
	want := int(math.Floor(0.30 * topology.DefaultCapacity / 32e3))
	if admitted != want {
		t.Errorf("admitted %d, want %d", admitted, want)
	}
}

func TestMethodGuards(t *testing.T) {
	ts, _ := testDaemon(t)
	if resp, _ := get(t, ts, "/v1/flows"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/flows: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/stats", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/utilization?class=voice&link=nonsense"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad link: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/utilization?class=voice&link=Seattle-Princeton"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("non-adjacent link: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/headroom?class=voice&src=Gotham&dst=Princeton"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("bad headroom src: %d", resp.StatusCode)
	}
}

// TestRejectReasonFields checks the machine-readable reason in error
// bodies, matching the event schema.
func TestRejectReasonFields(t *testing.T) {
	ts, _ := testDaemon(t)
	cases := []struct {
		req    flowRequest
		reason string
	}{
		{flowRequest{Class: "nope", Src: "Seattle", Dst: "Princeton"}, "unknown_class"},
		{flowRequest{Class: "voice", Src: "Seattle", Dst: "Seattle"}, "no_route"},
		{flowRequest{Class: "voice", Src: "Gotham", Dst: "Princeton"}, "unknown_router"},
	}
	for i, tc := range cases {
		_, body := post(t, ts, "/v1/flows", tc.req)
		if body["reason"] != tc.reason {
			t.Errorf("case %d: reason = %v, want %q (body %v)", i, body["reason"], tc.reason, body)
		}
	}
	// Unknown flow on teardown.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/flows/999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if body["reason"] != "unknown_flow" {
		t.Errorf("teardown reason = %v", body["reason"])
	}
}

// TestMetricsEndToEnd drives an admit → reject → teardown cycle and
// asserts /metrics reflects it in Prometheus text format.
func TestMetricsEndToEnd(t *testing.T) {
	ts, _ := testDaemon(t)
	// One admit.
	resp, body := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Princeton"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: %d %v", resp.StatusCode, body)
	}
	id := uint64(body["id"].(float64))
	// One no-route reject (src == dst).
	if resp, _ := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Seattle"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expected no-route reject, got %d", resp.StatusCode)
	}

	metrics := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("content type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	out := metrics()
	for _, line := range []string{
		"ubac_admit_total 1",
		`ubac_reject_total{reason="no_route"} 1`,
		`ubac_reject_total{reason="capacity"} 0`,
		"ubac_active_flows 1",
		"# TYPE ubac_admission_latency_seconds histogram",
		"ubac_admission_latency_seconds_count 2",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in /metrics:\n%s", line, out)
		}
	}
	// The configuration step's fixed-point solves are visible too.
	if !strings.Contains(out, "ubac_fixedpoint_iterations ") ||
		strings.Contains(out, "ubac_fixedpoint_iterations 0\n") {
		t.Error("fixed-point iterations missing or zero after configuration")
	}

	// Teardown closes the cycle.
	if resp := del(t, ts, fmt.Sprintf("/v1/flows/%d", id)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("teardown: %d", resp.StatusCode)
	}
	out = metrics()
	for _, line := range []string{"ubac_teardown_total 1", "ubac_active_flows 0"} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q after teardown", line)
		}
	}
}

// TestEventsEndpoint checks the audit trail: the decisions of an
// admit → reject → teardown cycle, newest first, with resolved names.
func TestEventsEndpoint(t *testing.T) {
	ts, _ := testDaemon(t)
	resp, body := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Princeton"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: %d", resp.StatusCode)
	}
	id := uint64(body["id"].(float64))
	post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Seattle"})
	del(t, ts, fmt.Sprintf("/v1/flows/%d", id))

	resp, out := get(t, ts, "/v1/events?limit=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/events: %d", resp.StatusCode)
	}
	if out["total"].(float64) != 3 {
		t.Errorf("total = %v", out["total"])
	}
	evs := out["events"].([]any)
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	first := evs[0].(map[string]any) // newest: the teardown
	if first["verdict"] != "teardown" || first["flow_id"].(float64) != float64(id) {
		t.Errorf("newest event = %v", first)
	}
	second := evs[1].(map[string]any) // the no-route reject
	if second["verdict"] != "reject" || second["reason"] != "no_route" {
		t.Errorf("reject event = %v", second)
	}
	third := evs[2].(map[string]any) // the admit
	if third["verdict"] != "admit" || third["src_name"] != "Seattle" || third["dst_name"] != "Princeton" {
		t.Errorf("admit event = %v", third)
	}
	if third["rate_bps"].(float64) != 32e3 {
		t.Errorf("rate = %v", third["rate_bps"])
	}

	// limit is validated.
	if resp, _ := get(t, ts, "/v1/events?limit=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/events?limit=1"); resp.StatusCode != http.StatusOK {
		t.Errorf("limit=1: %d", resp.StatusCode)
	}
}

// TestCapacityRejectEventHasBottleneck fills a pair to capacity and
// checks the resulting event pinpoints the failing server.
func TestCapacityRejectEventHasBottleneck(t *testing.T) {
	ts, net, sink := testDaemonFull(t)
	req := flowRequest{Class: "voice", Src: "0", Dst: "13"}
	for i := 0; i < 20000; i++ {
		resp, _ := post(t, ts, "/v1/flows", req)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if sink.RejectCapacity.Value() != 1 {
		t.Fatalf("capacity rejects = %d", sink.RejectCapacity.Value())
	}
	evs := sink.Ring().Snapshot(1)
	if len(evs) != 1 || evs[0].Reason != "capacity" {
		t.Fatalf("newest event = %+v", evs)
	}
	if evs[0].Bottleneck < 0 || evs[0].Bottleneck >= net.NumServers() {
		t.Errorf("bottleneck = %d", evs[0].Bottleneck)
	}
	// And the enriched endpoint resolves its name.
	resp, out := get(t, ts, "/v1/events?limit=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	ev := out["events"].([]any)[0].(map[string]any)
	if ev["bottleneck_name"] == "" {
		t.Errorf("bottleneck_name missing: %v", ev)
	}
}

// TestStatusForReason pins the reason → HTTP status table for every
// machine-readable reason the daemon can emit: rate conditions are
// 429, capacity conditions 503, unknown names 404, anything else 500.
func TestStatusForReason(t *testing.T) {
	cases := []struct {
		reason string
		want   int
	}{
		{"policy_token_bucket", http.StatusTooManyRequests},
		{"policy_shed", http.StatusTooManyRequests},
		{"capacity", http.StatusServiceUnavailable},
		{"policy_reserve", http.StatusServiceUnavailable},
		{"shutting_down", http.StatusServiceUnavailable},
		{"no_route", http.StatusNotFound},
		{"unknown_class", http.StatusNotFound},
		{"unknown_flow", http.StatusNotFound},
		{"unknown_router", http.StatusNotFound},
		{"internal", http.StatusInternalServerError},
		{"", http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusForReason(tc.reason); got != tc.want {
			t.Errorf("statusForReason(%q) = %d, want %d", tc.reason, got, tc.want)
		}
	}
	// Every admission sentinel maps through wire.Reason to a reason the
	// table knows (nothing falls to the 500 default by accident).
	sentinels := []error{
		admission.ErrNoRoute, admission.ErrCapacity, admission.ErrUnknownClass,
		admission.ErrUnknownFlow, admission.ErrShuttingDown,
		admission.ErrPolicyRate, admission.ErrPolicyShed, admission.ErrPolicyReserve,
		admission.ErrTooManyFlows,
	}
	for _, err := range sentinels {
		reason := wire.Reason(err)
		if reason == "internal" {
			t.Errorf("sentinel %v maps to the internal fallback", err)
		}
		if statusForReason(reason) == http.StatusInternalServerError {
			t.Errorf("sentinel %v (reason %q) falls to the 500 default", err, reason)
		}
	}
}

// testDaemonPolicy wires a daemon like testDaemonFull but with an
// admission policy installed on the controller before serving.
func testDaemonPolicy(t *testing.T, pol policy.Policy) (*httptest.Server, *telemetry.RegistrySink) {
	t.Helper()
	net, ctrl, reg, ring, sink := testDeployment(t)
	ctrl.SetPolicy(pol)
	ts := httptest.NewServer(newServer(net, ctrl, reg, ring).routes())
	t.Cleanup(ts.Close)
	return ts, sink
}

// TestPolicyOverHTTP walks a token-bucket policy through the wire
// contract: a tenant with a one-flow burst admits once and then gets
// 429 with reason "policy_token_bucket" (singleton and in-band in
// :batch), untenanted traffic rides the default bucket, the audit
// event carries the class and tenant, and the per-class counters show
// up on /metrics.
func TestPolicyOverHTTP(t *testing.T) {
	tb, err := policy.NewTokenBucket(
		policy.BucketConfig{Rate: 1, Burst: 1000},
		map[string]policy.BucketConfig{"tenant-a": {Rate: 1e-9, Burst: 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb.Clock = func() int64 { return 1 } // frozen clock: no refill ever
	ts, sink := testDaemonPolicy(t, tb)

	// First tenant-a flow spends the whole burst.
	resp, body := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Tenant: "tenant-a", Src: "Seattle", Dst: "Princeton"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first admit: %d %v", resp.StatusCode, body)
	}
	// Second is rate-limited: 429 with the machine-readable reason.
	resp, body = post(t, ts, "/v1/flows", flowRequest{Class: "voice", Tenant: "tenant-a", Src: "Seattle", Dst: "Princeton"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited admit: %d %v, want 429", resp.StatusCode, body)
	}
	if body["reason"] != "policy_token_bucket" {
		t.Errorf("reason = %v", body["reason"])
	}
	// Untenanted traffic uses the (large) default bucket.
	if resp, body := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Princeton"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("default-bucket admit: %d %v", resp.StatusCode, body)
	}

	// The audit event for the policy reject carries class and tenant.
	evs := sink.Ring().Snapshot(3)
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	rej := evs[1] // newest-first: default admit, policy reject, first admit
	if rej.Reason != "policy_token_bucket" || rej.Class != "voice" || rej.Tenant != "tenant-a" {
		t.Errorf("policy reject event = %+v", rej)
	}

	// The same reject surfaces in-band through :batch with HTTP 200.
	resp, out := post(t, ts, "/v1/flows:batch", map[string]any{
		"admit": []map[string]string{
			{"class": "voice", "tenant": "tenant-a", "src": "Seattle", "dst": "Princeton"},
			{"class": "voice", "src": "Champaign", "dst": "Princeton"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %v", resp.StatusCode, out)
	}
	admits := out["admit"].([]any)
	if r := admits[0].(map[string]any); r["reason"] != "policy_token_bucket" {
		t.Errorf("batch policy reject = %v", r)
	}
	if r := admits[1].(map[string]any); r["reason"] != nil || r["id"].(float64) == 0 {
		t.Errorf("batch default admit = %v", r)
	}

	// Per-class counters and the policy reject reason are on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`ubac_class_admit_total{class="voice"} 3`,
		`ubac_class_reject_total{class="voice"} 2`,
		`ubac_reject_total{reason="policy_token_bucket"} 2`,
	} {
		if !strings.Contains(string(text), line) {
			t.Errorf("missing %q in /metrics:\n%s", line, text)
		}
	}
}

// TestFlowBodyLimit checks MaxBytesReader on POST /v1/flows.
func TestFlowBodyLimit(t *testing.T) {
	ts, _ := testDaemon(t)
	// Valid JSON shape so the decoder keeps reading until the byte limit
	// trips (raw garbage would fail as a syntax error first).
	huge := append([]byte(`{"class":"`), bytes.Repeat([]byte("x"), maxFlowBody+1)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/v1/flows", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("huge body: %d, want 413", resp.StatusCode)
	}
}

// TestRoutesEndpointAndCacheMetrics walks the whole route-delay cache
// path: /v1/routes serves verified per-route bounds, the first call is
// a cache miss, the second a hit, and both counters surface in
// /metrics as ubac_route_cache_lookups_total.
func TestRoutesEndpointAndCacheMetrics(t *testing.T) {
	ts, _ := testDaemon(t)

	resp, body := get(t, ts, "/v1/routes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/routes: %d %v", resp.StatusCode, body)
	}
	routes, ok := body["routes"].([]any)
	if !ok || len(routes) == 0 {
		t.Fatalf("no routes in response: %v", body)
	}
	for _, e := range routes {
		r := e.(map[string]any)
		if r["class"] != "voice" || r["bound_seconds"].(float64) <= 0 || r["hops"].(float64) < 1 {
			t.Fatalf("implausible route entry: %v", r)
		}
	}
	if body["cache_misses"].(float64) < 1 {
		t.Fatalf("first lookup did not miss: %v", body)
	}

	resp, body = get(t, ts, "/v1/routes?class=voice")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/routes?class=voice: %d", resp.StatusCode)
	}
	if body["cache_hits"].(float64) < 1 {
		t.Fatalf("second lookup did not hit: %v", body)
	}
	if resp, _ := get(t, ts, "/v1/routes?class=nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown class: %d, want 404", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`ubac_route_cache_lookups_total{result="hit"}`,
		`ubac_route_cache_lookups_total{result="miss"}`,
	} {
		idx := strings.Index(string(text), series)
		if idx < 0 {
			t.Fatalf("metrics missing %s", series)
		}
		rest := strings.TrimSpace(strings.SplitN(string(text[idx+len(series):]), "\n", 2)[0])
		if v, err := strconv.ParseFloat(rest, 64); err != nil || v < 1 {
			t.Fatalf("%s = %q, want >= 1", series, rest)
		}
	}
}

// scrape fetches /metrics.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// seriesCount is the number of sample lines in a /metrics body.
func seriesCount(metrics string) int {
	n := 0
	for _, line := range strings.Split(metrics, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// TestUnknownClassFloodIsOneSeries: class names come from request
// bodies, so names the deployment does not configure must not each
// mint a series — they share class="unknown".
func TestUnknownClassFloodIsOneSeries(t *testing.T) {
	ts, _ := testDaemon(t)
	if resp, body := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Seattle"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-route reject: %d %v", resp.StatusCode, body)
	}
	before := seriesCount(scrape(t, ts))

	const flood = 10000
	for i := 0; i < flood; i++ {
		body := fmt.Sprintf(`{"class":"bogus-%d","src":"Seattle","dst":"Princeton"}`, i)
		resp, err := http.Post(ts.URL+"/v1/flows", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("bogus class %d: status %d", i, resp.StatusCode)
		}
	}

	out := scrape(t, ts)
	if after := seriesCount(out); after != before+1 {
		t.Errorf("%d bogus class names took /metrics from %d to %d series, want one more", flood, before, after)
	}
	if want := fmt.Sprintf(`ubac_class_reject_total{class="unknown"} %d`, flood); !strings.Contains(out, want) {
		t.Errorf("/metrics does not say %q", want)
	}
	if !strings.Contains(out, `ubac_class_reject_total{class="voice"} 1`) {
		t.Error("the configured class lost its own series")
	}
}

// TestRegistrySlotsExported: the registry's footprint is on /metrics
// and /v1/stats, and churn does not move it — a thousand admits through
// a handful of live flows leave it where the first few put it.
func TestRegistrySlotsExported(t *testing.T) {
	ts, _ := testDaemon(t)
	slots := func() float64 {
		_, st := get(t, ts, "/v1/stats")
		n, ok := st["registry_slots"].(float64)
		if !ok {
			t.Fatalf("/v1/stats has no registry_slots: %v", st)
		}
		if line := fmt.Sprintf("ubac_registry_slots %d\n", int(n)); !strings.Contains(scrape(t, ts), line) {
			t.Errorf("/metrics does not say %q", line)
		}
		return n
	}
	if n := slots(); n != 0 {
		t.Errorf("%g slots before any admit", n)
	}
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			resp, body := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Princeton"})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("admit: %d %v", resp.StatusCode, body)
			}
			if resp := del(t, ts, fmt.Sprintf("/v1/flows/%d", uint64(body["id"].(float64)))); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("teardown: %d", resp.StatusCode)
			}
		}
	}
	churn(200)
	warm := slots()
	if warm == 0 || warm > 64 {
		t.Errorf("%g slots after 200 admit/teardown pairs, want 1..64 (one per shard visited)", warm)
	}
	churn(1000)
	if n := slots(); n != warm {
		t.Errorf("registry grew from %g to %g slots under churn with one live flow", warm, n)
	}
}

// TestActiveFlowsGaugeSurvivesRecovery kills a durable daemon holding
// flows, boots another on its directory and tears them all down: the
// gauge starts at the recovered count and ends at 0 (it used to start
// at 0 and end at minus the count).
func TestActiveFlowsGaugeSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	ts, _, _, _ := testDaemonOn(t, dir)
	var ids []uint64
	for i := 0; i < 25; i++ {
		resp, body := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Princeton"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit: %d %v", resp.StatusCode, body)
		}
		ids = append(ids, uint64(body["id"].(float64)))
	}
	if resp := del(t, ts, fmt.Sprintf("/v1/flows/%d", ids[0])); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("teardown: %d", resp.StatusCode)
	}
	ids = ids[1:]
	// The first daemon is now abandoned mid-flight: sync mode has every
	// record on disk, nothing is closed or snapshotted.

	ts2, _, ctrl2, _ := testDaemonOn(t, dir)
	if st := ctrl2.Stats(); st.Active != int64(len(ids)) {
		t.Fatalf("recovered %d active flows, want %d", st.Active, len(ids))
	}
	if want := fmt.Sprintf("ubac_active_flows %d\n", len(ids)); !strings.Contains(scrape(t, ts2), want) {
		t.Errorf("after recovery /metrics does not say %q", want)
	}
	for _, id := range ids {
		if resp := del(t, ts2, fmt.Sprintf("/v1/flows/%d", id)); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("teardown of recovered flow %d: %d", id, resp.StatusCode)
		}
	}
	if out := scrape(t, ts2); !strings.Contains(out, "ubac_active_flows 0\n") {
		t.Errorf("after tearing down every recovered flow, /metrics has no \"ubac_active_flows 0\"")
	}
	if _, st := get(t, ts2, "/v1/stats"); st["Active"].(float64) != 0 {
		t.Errorf("/v1/stats Active = %v after drain", st["Active"])
	}
}

// TestGoRuntimeSeriesExported: the collector's clock and the live heap
// are on /metrics, read at scrape — a forced collection moves the one
// and the other is the heap the daemon keeps.
func TestGoRuntimeSeriesExported(t *testing.T) {
	ts, _ := testDaemon(t)
	value := func(out, series string) uint64 {
		t.Helper()
		for _, line := range strings.Split(out, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("/metrics has no %s", series)
		return 0
	}
	out := scrape(t, ts)
	for _, typ := range []string{"# TYPE ubac_go_gc_cycles_total counter", "# TYPE ubac_go_heap_live_bytes gauge"} {
		if !strings.Contains(out, typ+"\n") {
			t.Errorf("/metrics does not say %q", typ)
		}
	}
	cycles := value(out, "ubac_go_gc_cycles_total")
	runtime.GC()
	out = scrape(t, ts)
	if after := value(out, "ubac_go_gc_cycles_total"); after <= cycles {
		t.Errorf("ubac_go_gc_cycles_total %d after a forced collection, was %d", after, cycles)
	}
	if live := value(out, "ubac_go_heap_live_bytes"); live == 0 {
		t.Error("ubac_go_heap_live_bytes is 0 after a collection")
	}
}
