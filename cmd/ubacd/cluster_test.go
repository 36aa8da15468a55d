package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"ubac/internal/admission"
	"ubac/internal/cluster"
	"ubac/internal/daemon"
)

// oneMember boots a one-member cluster through testDaemon, on the
// -cluster, -wire and -data-dir settings ubacd requires of a member —
// the node installs its edge lease plane in the controller both
// transports serve — and waits for it to elect itself, which it does on
// its first round since its cold start has no other member to wait for.
func oneMember(t *testing.T, self uint32, changes ...func(*daemon.Config)) *testServer {
	t.Helper()
	dir := t.TempDir()
	ts := testDaemon(t, append(changes, func(c *daemon.Config) {
		c.Cluster = fmt.Sprintf("id=%d,members=%d@127.0.0.1:1", self, self)
		c.WireListen = "127.0.0.1:0"
		c.DataDir = dir
	})...)
	for deadline := time.Now().Add(5 * time.Second); ts.Node().Role() != cluster.RoleAuthority; {
		if time.Now().After(deadline) {
			t.Fatal("a one-member cluster did not elect itself")
		}
		time.Sleep(time.Millisecond)
	}
	return ts
}

// events returns the member's audit trail, newest first.
func events(t *testing.T, ts *testServer) []map[string]any {
	t.Helper()
	_, body := get(t, ts, "/v1/events?limit=16")
	var out []map[string]any
	for _, ev := range body["events"].([]any) {
		out = append(out, ev.(map[string]any))
	}
	return out
}

// TestHTTPAdmitsOnClusterMember: an HTTP admit on a cluster member
// takes its capacity from the member's edge lease cells, its ID carries
// the member, and the flow is in the member's registry until an HTTP
// DELETE frees it. Both decisions are the member's own: on /v1/events
// and in ubac_admit_total, as on a single node.
func TestHTTPAdmitsOnClusterMember(t *testing.T) {
	const self = 3
	ts := oneMember(t, self)

	active := func() float64 {
		t.Helper()
		_, st := get(t, ts, "/v1/stats")
		return st["Active"].(float64)
	}
	resp, body := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Princeton"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit on a cluster member: %d %v", resp.StatusCode, body)
	}
	id := admission.FlowID(body["id"].(float64))
	if id.Node() != self {
		t.Fatalf("flow ID %#x names node %d, want %d", uint64(id), id.Node(), self)
	}
	if n := active(); n != 1 {
		t.Errorf("/v1/stats Active = %v after the admit, want 1", n)
	}

	// The same flow under another member's node bits is not this
	// member's to free.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+fmt.Sprintf("/v1/flows/%d", id.WithNode(self+1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var refused map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&refused)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || refused["reason"] != "unknown_flow" {
		t.Errorf("DELETE of another node's ID: %d %v, want 404 unknown_flow", resp.StatusCode, refused)
	}

	if resp := del(t, ts, fmt.Sprintf("/v1/flows/%d", id)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("teardown on a cluster member: %d", resp.StatusCode)
	}
	if n := active(); n != 0 {
		t.Errorf("/v1/stats Active = %v after the teardown, want 0", n)
	}

	evs := events(t, ts)
	if len(evs) != 2 || evs[0]["verdict"] != "teardown" || evs[1]["verdict"] != "admit" ||
		admission.FlowID(evs[0]["flow_id"].(float64)) != id || admission.FlowID(evs[1]["flow_id"].(float64)) != id {
		t.Errorf("/v1/events = %v, want the admit and the teardown of %d", evs, id)
	}
	if text := scrape(t, ts); !strings.Contains(text, "\nubac_admit_total 1\n") {
		t.Errorf("/metrics does not count the member's admit:\n%s", text)
	}
}

// TestPolicyOverHTTPOnClusterMember is TestPolicyOverHTTP's cluster
// twin: a member runs the installed policy ahead of its lease cells, so
// a tenant with a one-flow burst admits once and then gets 429
// "policy_token_bucket", and /v1/events holds both decisions, the
// admitted flow under the member's node bits.
func TestPolicyOverHTTPOnClusterMember(t *testing.T) {
	const self = 5
	ts := oneMember(t, self, tenantBucket)

	flow := flowRequest{Class: "voice", Tenant: "tenant-a", Src: "Seattle", Dst: "Princeton"}
	resp, body := post(t, ts, "/v1/flows", flow)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first admit: %d %v", resp.StatusCode, body)
	}
	id := admission.FlowID(body["id"].(float64))
	resp, body = post(t, ts, "/v1/flows", flow)
	if resp.StatusCode != http.StatusTooManyRequests || body["reason"] != "policy_token_bucket" {
		t.Fatalf("rate-limited admit: %d %v, want 429 policy_token_bucket", resp.StatusCode, body)
	}

	evs := events(t, ts) // newest first: the policy reject, the admit
	if len(evs) != 2 {
		t.Fatalf("/v1/events = %v, want the two decisions", evs)
	}
	if rej := evs[0]; rej["reason"] != "policy_token_bucket" || rej["tenant"] != "tenant-a" {
		t.Errorf("policy reject event = %v", rej)
	}
	adm := evs[1]
	got := admission.FlowID(adm["flow_id"].(float64))
	if adm["verdict"] != "admit" || got != id || got.Node() != self {
		t.Errorf("admit event = %v, want flow %d of node %d", adm, id, self)
	}
}
