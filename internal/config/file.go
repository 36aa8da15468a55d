package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"ubac/internal/telemetry"
)

// File is the daemon's deployable configuration: everything ubacd needs
// to configure and serve one network, as a JSON document. Field
// semantics match the corresponding ubacd flags; zero values take the
// documented defaults at load time so a minimal file is just
// {"topology":"mci","alphas":{"voice":0.4}}.
type File struct {
	// Topology is a topology spec in the shared syntax of
	// topology.Parse ("mci", "ring:8", "@file.json", ...).
	Topology string `json:"topology"`
	// Alphas maps class name to its utilization assignment α ∈ (0,1).
	Alphas map[string]float64 `json:"alphas"`
	// Listen is the HTTP listen address (default ":8080").
	Listen string `json:"listen,omitempty"`
	// WireListen is the binary wire-transport listen address; empty
	// leaves the wire listener off (HTTP only).
	WireListen string `json:"wire_listen,omitempty"`
	// Events is the decision audit ring capacity (default 4096).
	Events int `json:"events,omitempty"`
	// ShutdownGraceSeconds is the graceful-drain deadline on
	// SIGINT/SIGTERM (default 10).
	ShutdownGraceSeconds float64 `json:"shutdown_grace_seconds,omitempty"`
	// DataDir is the durability directory for the admission write-ahead
	// log and registry snapshots; empty runs the daemon non-durable.
	DataDir string `json:"data_dir,omitempty"`
	// Fsync is the WAL append mode: "async" (default; group commit
	// within the flush interval), "sync" (admit acks wait for fsync) or
	// "off" (explicitly non-durable, only valid without data_dir).
	Fsync string `json:"fsync,omitempty"`
	// Policy selects the admission policy consulted before the
	// utilization test; absent means always_admit (the paper's
	// behavior). See PolicyConfig.
	Policy *PolicyConfig `json:"policy,omitempty"`
	// Cluster is a distributed-admission-plane spec in the -cluster
	// flag syntax (see ParseClusterSpec); empty runs a single node.
	// A cluster node requires wire_listen and data_dir.
	Cluster string `json:"cluster,omitempty"`
}

// Default values applied by ParseFile.
const (
	DefaultListen               = ":8080"
	DefaultEvents               = 4096
	DefaultShutdownGraceSeconds = 10
	DefaultFsync                = "async"
)

// ParseFile decodes and validates a daemon configuration document. It
// is strict — unknown fields, trailing garbage, and out-of-range values
// are errors — and total: any byte slice either yields a valid File
// with defaults applied or an error, never a panic (fuzz-tested).
// Topology specs are validated syntactically only; resolving them (and
// hitting the filesystem for @file references) is the caller's job.
func ParseFile(data []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	// A second document (or any trailing non-space token) is malformed.
	if dec.More() {
		return nil, fmt.Errorf("config: trailing data after configuration object")
	}
	if f.Topology == "" {
		return nil, fmt.Errorf("config: missing topology")
	}
	if len(f.Alphas) == 0 {
		return nil, fmt.Errorf("config: missing alphas (class → utilization)")
	}
	for name, a := range f.Alphas {
		if name == "" {
			return nil, fmt.Errorf("config: empty class name in alphas")
		}
		if !(a > 0 && a < 1) { // also rejects NaN
			return nil, fmt.Errorf("config: class %q alpha %g out of (0,1)", name, a)
		}
	}
	if f.Listen == "" {
		f.Listen = DefaultListen
	}
	if f.Events < 0 {
		return nil, fmt.Errorf("config: negative events capacity %d", f.Events)
	}
	if f.Events == 0 {
		f.Events = DefaultEvents
	}
	if f.ShutdownGraceSeconds == 0 {
		f.ShutdownGraceSeconds = DefaultShutdownGraceSeconds
	}
	if err := checkLimits(f.Events, f.ShutdownGraceSeconds); err != nil {
		return nil, err
	}
	switch f.Fsync {
	case "", "sync", "async", "off":
	default:
		return nil, fmt.Errorf("config: fsync %q not one of sync|async|off", f.Fsync)
	}
	if f.Fsync == "off" && f.DataDir != "" {
		return nil, fmt.Errorf("config: fsync \"off\" with data_dir set — drop data_dir to run non-durable")
	}
	if f.Fsync == "" {
		f.Fsync = DefaultFsync
	}
	if f.Policy != nil {
		if err := f.Policy.Validate(); err != nil {
			return nil, err
		}
	}
	if f.Cluster != "" {
		if _, err := ParseClusterSpec(f.Cluster); err != nil {
			return nil, err
		}
		if f.WireListen == "" {
			return nil, fmt.Errorf("config: cluster requires wire_listen (cluster frames ride the wire transport)")
		}
		if f.DataDir == "" {
			return nil, fmt.Errorf("config: cluster requires data_dir (the authority journals leases; followers mirror the log)")
		}
	}
	return &f, nil
}

// maxGraceSeconds is the longest drain deadline a time.Duration holds.
const maxGraceSeconds = float64(math.MaxInt64 / int64(time.Second))

// checkLimits refuses an audit-ring capacity outside [1,
// telemetry.MaxRingEvents] and a shutdown grace that is negative, NaN or
// longer than a time.Duration holds, naming the events and
// shutdown_grace_seconds keys.
func checkLimits(events int, graceSeconds float64) error {
	if events < 1 || events > telemetry.MaxRingEvents {
		return fmt.Errorf("config: events capacity %d outside [1, %d]", events, telemetry.MaxRingEvents)
	}
	if !(graceSeconds >= 0 && graceSeconds <= maxGraceSeconds) {
		return fmt.Errorf("config: shutdown_grace_seconds %g outside [0, %.0f]", graceSeconds, maxGraceSeconds)
	}
	return nil
}

// LoadFile reads and parses a daemon configuration file.
func LoadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return ParseFile(data)
}
