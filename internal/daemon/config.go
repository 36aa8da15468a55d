package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"

	"ubac/internal/config"
	"ubac/internal/telemetry"
)

// servedClass is the one real-time class ubacd configures and admits.
const servedClass = "voice"

// Config is everything ubacd needs to configure and serve one network.
// Each setting is one field here, one key of a -config JSON document
// and one flag (ParseFlags); a key left out of a document takes the
// flag's default, and a minimal one is just
// {"topology":"mci","alphas":{"voice":0.4}}.
type Config struct {
	// Topology is a spec in topology.Parse's syntax ("mci", "ring:8",
	// "@file.json", ...).
	Topology string `json:"topology"`
	// Alphas maps class name to its utilization assignment α ∈ (0,1);
	// ubacd serves only voice, whose α -alpha sets.
	Alphas     map[string]float64 `json:"alphas"`
	Listen     string             `json:"listen,omitempty"`
	WireListen string             `json:"wire_listen,omitempty"`
	Events     int                `json:"events,omitempty"`
	// ShutdownGraceSeconds is -shutdown-grace in seconds.
	ShutdownGraceSeconds float64 `json:"shutdown_grace_seconds,omitempty"`
	DataDir              string  `json:"data_dir,omitempty"`
	Fsync                string  `json:"fsync,omitempty"`
	// Policy is nil for always_admit, the paper's behavior.
	Policy  *config.PolicyConfig `json:"policy,omitempty"`
	Cluster string               `json:"cluster,omitempty"`
}

// Defaults of the settings a -config file may leave out.
const (
	DefaultListen               = ":8080"
	DefaultEvents               = 4096
	DefaultShutdownGraceSeconds = 10
	DefaultFsync                = "async"
)

// ParseFile decodes a -config document. It is strict — unknown keys and
// trailing data are errors — and total: any byte slice yields a Config
// or an error, never a panic (fuzz-tested). A key left out or zero
// takes its default. Values are not judged here: flags may still
// complete or override them, so Check runs on the merged Config.
func ParseFile(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	// A second document (or any trailing non-space token) is malformed.
	if dec.More() {
		return nil, fmt.Errorf("config: trailing data after configuration object")
	}
	if c.Listen == "" {
		c.Listen = DefaultListen
	}
	if c.Events == 0 {
		c.Events = DefaultEvents
	}
	if c.ShutdownGraceSeconds == 0 {
		c.ShutdownGraceSeconds = DefaultShutdownGraceSeconds
	}
	if c.Fsync == "" {
		c.Fsync = DefaultFsync
	}
	return &c, nil
}

// LoadFile reads and decodes a -config file.
func LoadFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return ParseFile(data)
}

// ParseFlags declares ubacd's flags on fs, parses args and returns the
// Config they describe, checked: the -config file's settings, with
// every flag given on the command line applied over them.
func ParseFlags(fs *flag.FlagSet, args []string) (Config, error) {
	// The two Func flags' defaults; the others' come with their flag.
	c := Config{Alphas: map[string]float64{servedClass: 0.40}, ShutdownGraceSeconds: DefaultShutdownGraceSeconds}
	path := fs.String("config", "", "JSON configuration file (flags set explicitly on the command line override it)")
	fs.StringVar(&c.Topology, "topology", "mci", "topology: mci | nsfnet | line:N | ... | @file.json")
	fs.Func("alpha", "utilization assignment for the voice class (default 0.4)", func(v string) error {
		a, err := strconv.ParseFloat(v, 64)
		c.Alphas = map[string]float64{servedClass: a}
		return err
	})
	fs.StringVar(&c.Listen, "listen", DefaultListen, "listen address")
	fs.StringVar(&c.WireListen, "wire", "", "binary wire-transport listen address (empty = HTTP only)")
	fs.IntVar(&c.Events, "events", DefaultEvents, "decision audit ring capacity (rounded up to a power of two)")
	fs.Func("shutdown-grace", "graceful shutdown deadline on SIGINT/SIGTERM (default 10s)", func(v string) error {
		d, err := time.ParseDuration(v)
		c.ShutdownGraceSeconds = math.Min(d.Seconds(), maxGraceSeconds)
		return err
	})
	fs.StringVar(&c.DataDir, "data-dir", "", "durability directory for the admission WAL and snapshots (empty = non-durable)")
	fs.StringVar(&c.Fsync, "fsync", DefaultFsync, "WAL append mode: sync | async | off (off only without -data-dir)")
	fs.Func("policy", `admission policy: always_admit | token_bucket:rate=R,burst=B | slo_gated:standard=S,sheddable=H[,name=tier...] | reserve_headroom:fraction=F[,protected=a+b] | @file.json (empty = always_admit)`, func(v string) (err error) {
		c.Policy, err = config.ParsePolicySpec(v)
		return err
	})
	fs.StringVar(&c.Cluster, "cluster", "", "distributed admission plane: id=N,members=0@host:port;1@host:port[,heartbeat_ms=...,suspicion_ms=...,ladder_ms=...,lease_ttl_ms=...,lease_block=...] (requires -wire and -data-dir; empty = single node)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	// Without a file every value is a flag's, given or default.
	named := fs.VisitAll
	if *path != "" {
		file, err := LoadFile(*path)
		if err != nil {
			return c, err
		}
		// The flags point into c, so parsing again lays the ones given
		// over the file's values.
		c = *file
		if err := fs.Parse(args); err != nil {
			return c, err
		}
		named = fs.Visit
	}
	fromFlag := map[string]bool{}
	named(func(f *flag.Flag) { fromFlag[f.Name] = true })
	return c, c.Check(fromFlag)
}

// maxGraceSeconds is the longest drain deadline a time.Duration holds.
const maxGraceSeconds = float64(math.MaxInt64 / int64(time.Second))

// ShutdownGrace is the drain deadline as a duration.
func (c *Config) ShutdownGrace() time.Duration {
	return time.Duration(c.ShutdownGraceSeconds * float64(time.Second))
}

// Check refuses a configuration ubacd cannot serve, judging each
// setting once whichever spelling supplied it. fromFlag holds the flags
// whose value c carries: an error names such a setting by its flag
// (-events 0) and any other by its file key (events).
func (c *Config) Check(fromFlag map[string]bool) error {
	name := func(flag, key string) string {
		if fromFlag[flag] {
			return "-" + flag
		}
		return key
	}
	if c.Topology == "" {
		return errors.New("missing topology")
	}
	if len(c.Alphas) == 0 {
		return errors.New("missing alphas (class → utilization)")
	}
	var other []string
	for class, a := range c.Alphas {
		if class == "" {
			return errors.New("empty class name in alphas")
		}
		if !(a > 0 && a < 1) { // also rejects NaN
			return fmt.Errorf("%s: class %q alpha %g out of (0,1)", name("alpha", "alphas"), class, a)
		}
		if class != servedClass {
			other = append(other, class)
		}
	}
	// A misspelt class would otherwise run at an α nobody asked for.
	if len(other) > 0 {
		sort.Strings(other)
		return fmt.Errorf("alphas names %q; ubacd serves only class %q", other, servedClass)
	}
	if n := c.Events; n < 1 || n > telemetry.MaxRingEvents {
		switch {
		case fromFlag["events"]:
			return fmt.Errorf("-events %d outside [1, %d]", n, telemetry.MaxRingEvents)
		case n < 0: // a file's 0 is the default
			return fmt.Errorf("negative events capacity %d", n)
		}
		return fmt.Errorf("events capacity %d outside [1, %d]", n, telemetry.MaxRingEvents)
	}
	if g := c.ShutdownGraceSeconds; !(g >= 0 && g <= maxGraceSeconds) {
		if fromFlag["shutdown-grace"] {
			return fmt.Errorf("-shutdown-grace %s is negative", c.ShutdownGrace())
		}
		return fmt.Errorf("shutdown_grace_seconds %g outside [0, %.0f]", g, maxGraceSeconds)
	}
	switch fsync := name("fsync", "fsync"); c.Fsync {
	case "sync", "async":
	case "off":
		if c.DataDir != "" {
			return fmt.Errorf("%[1]s off with %[2]s %[3]q — drop %[2]s to run non-durable", fsync, name("data-dir", "data_dir"), c.DataDir)
		}
	default:
		return fmt.Errorf("%s %q not one of sync|async|off", fsync, c.Fsync)
	}
	if c.Policy != nil {
		if err := c.Policy.Validate(); err != nil {
			return err
		}
	}
	if c.Cluster != "" {
		if _, err := config.ParseClusterSpec(c.Cluster); err != nil {
			return err
		}
		cluster := name("cluster", "cluster")
		if c.WireListen == "" {
			return fmt.Errorf("%s requires %s (cluster frames ride the wire transport)", cluster, name("wire", "wire_listen"))
		}
		if c.DataDir == "" {
			return fmt.Errorf("%s requires %s (the authority journals leases; followers mirror the log)", cluster, name("data-dir", "data_dir"))
		}
		if p := c.Policy; p != nil && (p.Kind == "slo_gated" || p.Kind == "reserve_headroom") {
			return fmt.Errorf("%s with policy %s: %s reads this node's ledger, which a member's leases leave empty (no cluster-wide load signal)", cluster, p.Describe(), p.Kind)
		}
	}
	return nil
}
