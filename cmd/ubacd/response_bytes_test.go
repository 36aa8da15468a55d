package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ubac/internal/policy"
)

// flowCase is one request against the singleton flow endpoints and the
// exact response it must get.
type flowCase struct {
	name         string
	method, path string
	body         string
	status       int
	want         string
}

// do sends fc to ts and checks the status, the content type and every
// byte of the body.
func (fc flowCase) do(t *testing.T, ts *httptest.Server) {
	t.Helper()
	req, err := http.NewRequest(fc.method, ts.URL+fc.path, strings.NewReader(fc.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", fc.name, err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s: %v", fc.name, err)
	}
	if resp.StatusCode != fc.status || string(got) != fc.want {
		t.Errorf("%s: %d %q, want %d %q", fc.name, resp.StatusCode, got, fc.status, fc.want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: content type %q", fc.name, ct)
	}
}

// TestFlowsResponseBytes pins the status and the exact body bytes of
// POST /v1/flows and DELETE /v1/flows/{id} for an admit and for every
// way either can fail, so a change to how the handlers parse requests
// or write responses cannot move a byte on the wire unnoticed. Flow IDs
// are deterministic on a fresh controller driven from one goroutine.
func TestFlowsResponseBytes(t *testing.T) {
	ts, net, ctrl, _ := testDaemonOn(t, "")
	const voice = `{"class":"voice","src":"Seattle","dst":"Princeton"}`
	padded := voice + strings.Repeat(" ", maxFlowBody)
	huge := `{"class":"` + strings.Repeat("x", maxFlowBody+1) + `"}`
	for _, fc := range []flowCase{
		{"admit", "POST", "/v1/flows", voice,
			http.StatusCreated, "{\"id\":4294967335}\n"},
		{"unknown class", "POST", "/v1/flows", `{"class":"nope","src":"Seattle","dst":"Princeton"}`,
			http.StatusNotFound, "{\"error\":\"admission: unknown class\",\"reason\":\"unknown_class\"}\n"},
		{"no route", "POST", "/v1/flows", `{"class":"voice","src":"Seattle","dst":"Seattle"}`,
			http.StatusNotFound, "{\"error\":\"admission: no configured route\",\"reason\":\"no_route\"}\n"},
		{"unknown router", "POST", "/v1/flows", `{"class":"voice","src":"Gotham","dst":"Princeton"}`,
			http.StatusNotFound, "{\"error\":\"unknown router \\\"Gotham\\\"\",\"reason\":\"unknown_router\"}\n"},
		{"malformed", "POST", "/v1/flows", `{nope`,
			http.StatusBadRequest, "{\"error\":\"invalid request: invalid character 'n' looking for beginning of object key string\"}\n"},
		{"unknown field", "POST", "/v1/flows", `{"class":"voice","src":"Seattle","dst":"Princeton","extra":1}`,
			http.StatusBadRequest, "{\"error\":\"invalid request: json: unknown field \\\"extra\\\"\"}\n"},
		{"trailing data", "POST", "/v1/flows", voice + ` {}`,
			http.StatusBadRequest, "{\"error\":\"invalid request: trailing data after request object\"}\n"},
		{"missing field", "POST", "/v1/flows", `{"class":"voice","src":"Seattle"}`,
			http.StatusBadRequest, "{\"error\":\"invalid request: \\\"class\\\", \\\"src\\\" and \\\"dst\\\" are all required\"}\n"},
		{"oversize value", "POST", "/v1/flows", huge,
			http.StatusRequestEntityTooLarge, "{\"error\":\"body exceeds 65536 bytes\"}\n"},
		// A whole request followed by blanks past the cap: the body is
		// refused as a whole, not admitted on its first 64 KiB.
		{"oversize padding", "POST", "/v1/flows", padded,
			http.StatusRequestEntityTooLarge, "{\"error\":\"body exceeds 65536 bytes\"}\n"},
		{"unknown flow", "DELETE", "/v1/flows/999999", "",
			http.StatusNotFound, "{\"error\":\"admission: unknown flow\",\"reason\":\"unknown_flow\"}\n"},
	} {
		fc.do(t, ts)
	}

	// Saturate Seattle→Princeton behind the handler's back; the next
	// HTTP admit on it is the capacity reject.
	sea, _ := net.RouterByName("Seattle")
	pri, _ := net.RouterByName("Princeton")
	for {
		if _, err := ctrl.Admit("voice", sea, pri); err != nil {
			break
		}
	}
	flowCase{"capacity", "POST", "/v1/flows", voice,
		http.StatusServiceUnavailable, "{\"error\":\"admission: insufficient capacity along route\",\"reason\":\"capacity\"}\n"}.do(t, ts)

	tb, err := policy.NewTokenBucket(policy.BucketConfig{Rate: 1, Burst: 1000},
		map[string]policy.BucketConfig{"tenant-a": {Rate: 1e-9, Burst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Clock = func() int64 { return 1 }
	pts, _ := testDaemonPolicy(t, tb)
	const tenant = `{"class":"voice","tenant":"tenant-a","src":"Seattle","dst":"Princeton"}`
	flowCase{"policy admit", "POST", "/v1/flows", tenant,
		http.StatusCreated, "{\"id\":4294967335}\n"}.do(t, pts)
	flowCase{"policy_token_bucket", "POST", "/v1/flows", tenant,
		http.StatusTooManyRequests, "{\"error\":\"admission: policy rate limit exceeded\",\"reason\":\"policy_token_bucket\"}\n"}.do(t, pts)
}
