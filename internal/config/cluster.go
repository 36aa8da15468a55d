package config

import (
	"fmt"
	"strconv"
	"strings"
)

// ClusterMember is one static member of a distributed admission plane.
type ClusterMember struct {
	ID   uint32
	Addr string
}

// ClusterConfig is the parsed -cluster specification. It is
// transport-agnostic on purpose: cmd/ubacd maps it onto the cluster
// package's Config so this package stays dependency-free.
type ClusterConfig struct {
	// NodeID is this node's member ID.
	NodeID uint32
	// Members is the full static membership, this node included.
	Members []ClusterMember
	// HeartbeatMS paces the control loop (0 = package default).
	HeartbeatMS int
	// SuspicionMS is the peer-death timeout (0 = package default).
	SuspicionMS int
	// LadderMS spaces the promotion ladder (0 = package default).
	LadderMS int
	// LeaseTTLMS bounds unrenewed edge spending (0 = package default).
	LeaseTTLMS int
	// LeaseBlock is the grant block size (0 = package default).
	LeaseBlock int
}

// ParseClusterSpec resolves the -cluster flag syntax:
//
//	id=0,members=0@host1:9444;1@host2:9444;2@host3:9444
//	id=1,members=...,heartbeat_ms=100,suspicion_ms=3000,ladder_ms=500,lease_ttl_ms=1000,lease_block=64
//
// id and members are required; members is a ';'-separated list of
// ID@host:port entries and must include id. Unknown keys, duplicate
// IDs, IDs above 255 (they ride the flow ID's eight node bits) and timing
// inversions (lease_ttl_ms > suspicion_ms, heartbeat_ms ≥ lease_ttl_ms)
// are errors. A key left out takes the cluster package's default, which
// cluster.Config.Validate checks against the keys given.
func ParseClusterSpec(spec string) (*ClusterConfig, error) {
	if spec == "" {
		return nil, fmt.Errorf("config: cluster: empty spec")
	}
	cc := &ClusterConfig{NodeID: ^uint32(0)}
	posInt := func(key, val string) (int, error) {
		v, err := strconv.Atoi(val)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("config: cluster: %s=%q is not a positive integer", key, val)
		}
		return v, nil
	}
	for _, arg := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(arg, "=")
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("config: cluster: malformed argument %q (want key=value)", arg)
		}
		var err error
		switch key {
		case "id":
			id, perr := strconv.ParseUint(val, 10, 32)
			if perr != nil {
				return nil, fmt.Errorf("config: cluster: id=%q is not an integer", val)
			}
			cc.NodeID = uint32(id)
		case "members":
			for _, m := range strings.Split(val, ";") {
				idStr, addr, ok := strings.Cut(m, "@")
				if !ok || idStr == "" || addr == "" {
					return nil, fmt.Errorf("config: cluster: malformed member %q (want id@host:port)", m)
				}
				id, perr := strconv.ParseUint(idStr, 10, 32)
				if perr != nil {
					return nil, fmt.Errorf("config: cluster: member ID %q is not an integer", idStr)
				}
				if _, _, serr := splitHostPort(addr); serr != nil {
					return nil, fmt.Errorf("config: cluster: member %s address %q: %v", idStr, addr, serr)
				}
				cc.Members = append(cc.Members, ClusterMember{ID: uint32(id), Addr: addr})
			}
		case "heartbeat_ms":
			cc.HeartbeatMS, err = posInt(key, val)
		case "suspicion_ms":
			cc.SuspicionMS, err = posInt(key, val)
		case "ladder_ms":
			cc.LadderMS, err = posInt(key, val)
		case "lease_ttl_ms":
			cc.LeaseTTLMS, err = posInt(key, val)
		case "lease_block":
			cc.LeaseBlock, err = posInt(key, val)
		default:
			return nil, fmt.Errorf("config: cluster: unknown argument %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	if cc.NodeID == ^uint32(0) {
		return nil, fmt.Errorf("config: cluster: missing id")
	}
	if len(cc.Members) == 0 {
		return nil, fmt.Errorf("config: cluster: missing members")
	}
	seen := make(map[uint32]bool, len(cc.Members))
	self := false
	for _, m := range cc.Members {
		if m.ID > 255 {
			return nil, fmt.Errorf("config: cluster: member ID %d exceeds 255 (IDs ride the flow ID's eight node bits)", m.ID)
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("config: cluster: duplicate member ID %d", m.ID)
		}
		seen[m.ID] = true
		if m.ID == cc.NodeID {
			self = true
		}
	}
	if !self {
		return nil, fmt.Errorf("config: cluster: id %d not in members", cc.NodeID)
	}
	if cc.LeaseTTLMS > 0 && cc.SuspicionMS > 0 && cc.LeaseTTLMS > cc.SuspicionMS {
		return nil, fmt.Errorf("config: cluster: lease_ttl_ms %d exceeds suspicion_ms %d (an edge must stop spending a lease before the authority reclaims it)",
			cc.LeaseTTLMS, cc.SuspicionMS)
	}
	if cc.HeartbeatMS > 0 && cc.LeaseTTLMS > 0 && cc.HeartbeatMS >= cc.LeaseTTLMS {
		return nil, fmt.Errorf("config: cluster: heartbeat_ms %d is not below lease_ttl_ms %d (leases renew on the heartbeat tick, so every lease would lapse between two renewals)",
			cc.HeartbeatMS, cc.LeaseTTLMS)
	}
	return cc, nil
}

// splitHostPort is a dependency-free syntactic check of host:port.
// The port must be numeric; the host may be empty ("listen on all"
// is not meaningful for a peer address, so empty hosts are rejected).
func splitHostPort(addr string) (host, port string, err error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return "", "", fmt.Errorf("missing port")
	}
	host, port = addr[:i], addr[i+1:]
	if host == "" {
		return "", "", fmt.Errorf("missing host")
	}
	if p, perr := strconv.Atoi(port); perr != nil || p <= 0 || p > 65535 {
		return "", "", fmt.Errorf("bad port %q", port)
	}
	return host, port, nil
}
