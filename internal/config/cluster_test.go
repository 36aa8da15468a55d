package config

import (
	"strings"
	"testing"
)

func TestParseClusterSpec(t *testing.T) {
	cc, err := ParseClusterSpec("id=1,members=0@h0:9444;1@h1:9444;2@h2:9444,heartbeat_ms=50,suspicion_ms=2000,ladder_ms=400,lease_ttl_ms=800,lease_block=128")
	if err != nil {
		t.Fatal(err)
	}
	if cc.NodeID != 1 {
		t.Errorf("NodeID = %d, want 1", cc.NodeID)
	}
	if len(cc.Members) != 3 || cc.Members[2] != (ClusterMember{ID: 2, Addr: "h2:9444"}) {
		t.Errorf("Members = %v", cc.Members)
	}
	if cc.HeartbeatMS != 50 || cc.SuspicionMS != 2000 || cc.LadderMS != 400 || cc.LeaseTTLMS != 800 || cc.LeaseBlock != 128 {
		t.Errorf("timings = %+v", cc)
	}

	// Minimal spec: just identity and membership.
	cc, err = ParseClusterSpec("id=0,members=0@localhost:9444")
	if err != nil {
		t.Fatal(err)
	}
	if cc.HeartbeatMS != 0 || cc.LeaseBlock != 0 {
		t.Errorf("defaults not zero: %+v", cc)
	}
}

func TestParseClusterSpecErrors(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"", "empty spec"},
		{"members=0@h:1", "missing id"},
		{"id=0", "missing members"},
		{"id=3,members=0@h:1;1@h:2", "not in members"},
		{"id=0,members=0@h:1;0@h:2", "duplicate member ID"},
		{"id=256,members=256@h:1", "exceeds 255"},
		{"id=0,members=0@h:1,bogus=1", "unknown argument"},
		{"id=0,members=h:1", "malformed member"},
		{"id=0,members=0@h", "missing port"},
		{"id=0,members=0@:9444", "missing host"},
		{"id=0,members=0@h:99999", "bad port"},
		{"id=0,members=0@h:1,heartbeat_ms=-5", "positive integer"},
		{"id=0,members=0@h:1,suspicion_ms=100,lease_ttl_ms=200", "exceeds suspicion_ms"},
		{"id=0,members=0@h:1,heartbeat_ms=500,lease_ttl_ms=500", "not below lease_ttl_ms"},
		{"id=0,members=0@h:1,heartbeat_ms=800,lease_ttl_ms=500", "not below lease_ttl_ms"},
		{"id=x,members=0@h:1", "not an integer"},
		{"id=0,members=0@h:1,", "malformed argument"},
	}
	for _, c := range cases {
		_, err := ParseClusterSpec(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %v, want containing %q", c.spec, err, c.want)
		}
	}
}
