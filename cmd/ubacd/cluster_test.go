package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ubac/internal/admission"
	"ubac/internal/cluster"
)

// TestHTTPAdmitsOnClusterMember wires the HTTP server over a cluster
// node's backend the way main.go does under -cluster: an HTTP admit
// rides the member's edge lease plane, its ID carries the member, and
// the flow is in the member's registry until an HTTP DELETE frees it.
// A one-member cluster elects itself on its first round, since its cold
// start has no other member to wait for.
func TestHTTPAdmitsOnClusterMember(t *testing.T) {
	const self = 3
	net, ctrl, reg, ring, _ := testDeployment(t)
	node, err := cluster.NewNode(cluster.NodeOptions{
		Config: cluster.Config{
			NodeID:  self,
			Members: []cluster.Member{{ID: self, Addr: "127.0.0.1:1"}},
		},
		Controller: ctrl,
		DataDir:    t.TempDir(),
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	t.Cleanup(node.Stop)
	ts := httptest.NewServer(newServer(net, node.Backend(), ctrl, reg, ring).routes())
	t.Cleanup(ts.Close)
	for deadline := time.Now().Add(5 * time.Second); node.Role() != cluster.RoleAuthority; {
		if time.Now().After(deadline) {
			t.Fatal("a one-member cluster did not elect itself")
		}
		time.Sleep(time.Millisecond)
	}

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
}
