// Command ubacload is the closed-loop admission load harness: it
// drives either an in-process admission.Controller or a live ubacd
// daemon over HTTP at a configurable concurrency and arrival mix, and
// reports admitted/s, reject ratio and p50/p99 decision latency from a
// telemetry histogram.
//
//	ubacload -mode inproc -topology mci -alpha 0.40 -conc 16 -duration 5s
//	ubacload -mode http -target http://localhost:8080 -conc 64 -batch 32
//
// A third mode replays a generated multi-tenant workload (Poisson or
// bursty MMPP/on-off arrivals) in virtual time against an in-process
// controller with an admission policy installed, reporting per-tier
// reject ratios — the overload-behavior experiment:
//
//	ubacload -mode scenario -arrivals mmpp:high=50,low=0,on=2,off=8 \
//	  -policy slo_gated:standard=0.9,sheddable=0.7,gold=critical,bronze=sheddable \
//	  -mix gold=1,silver=2,bronze=7 -horizon 600 -seed 42
//
// Each worker runs a closed loop: admit (singleton or batch), hold up
// to -hold flows, tear the oldest down once the hold fills, repeat
// until -duration elapses, then drain everything it still holds — so a
// run leaves the target with zero residual flows. With -bench the
// summary is followed by go-test-format benchmark lines on stdout,
// pipeable through tools/benchjson into BENCH_admission.json:
//
//	ubacload -mode inproc -bench | go run ./tools/benchjson
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	cfg := loadConfig{}
	flag.StringVar(&cfg.mode, "mode", "inproc", "inproc (drive a controller in this process) | http (drive a live ubacd) | scenario (open-loop replay, see -arrivals)")
	flag.StringVar(&cfg.target, "target", "http://localhost:8080", "ubacd base URL (http mode) or host:port (wire transport)")
	flag.StringVar(&cfg.targets, "targets", "", "comma-separated host:port list of cluster nodes (implies -transport wire): admits round-robin across nodes, teardowns return to the admitting node; the report breaks throughput out per node")
	flag.StringVar(&cfg.transport, "transport", "http", "remote transport: http (JSON API) | wire (binary framed protocol against ubacd -wire)")
	flag.IntVar(&cfg.conns, "conns", 1, "wire transport: TCP connections to spread calls across")
	flag.IntVar(&cfg.pipeline, "pipeline", 32, "wire transport: outstanding frames per connection (callers beyond it block)")
	flag.StringVar(&cfg.topo, "topology", "mci", "topology spec (inproc mode): mci | nsfnet | line:N | ... | @file.json")
	flag.Float64Var(&cfg.alpha, "alpha", 0.40, "utilization assignment (inproc mode)")
	flag.StringVar(&cfg.class, "class", "voice", "traffic class to admit")
	flag.IntVar(&cfg.conc, "conc", runtime.GOMAXPROCS(0), "concurrent closed-loop workers")
	flag.DurationVar(&cfg.duration, "duration", 2*time.Second, "measurement window")
	flag.IntVar(&cfg.batch, "batch", 0, "operations per request: 0 or 1 = singleton Admit, N>1 = AdmitBatch / POST /v1/flows:batch")
	flag.IntVar(&cfg.hold, "hold", 64, "flows each worker holds before the closed loop starts tearing down")
	flag.BoolVar(&cfg.bench, "bench", false, "also emit go-test-format benchmark lines for tools/benchjson")
	flag.StringVar(&cfg.durability, "durability", "off", "inproc mode: journal every decision through a WAL: off | async | sync")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "WAL directory for -durability (empty = temp dir, removed on exit)")
	scn := scenarioConfig{}
	flag.StringVar(&scn.policySpec, "policy", "", "scenario mode: admission policy spec (see ubacd -policy; empty = always_admit)")
	flag.StringVar(&scn.arrivals, "arrivals", "poisson:rate=10", "scenario mode: arrival process: poisson:rate=R | mmpp:high=H,low=L,on=S,off=S (the hold time is -holding)")
	flag.StringVar(&scn.mix, "mix", "", "scenario mode: weighted tenant mix, tenant=weight[,tenant=weight...] (empty = untenanted)")
	flag.Float64Var(&scn.holding, "holding", 60, "scenario mode: mean call holding time, virtual seconds")
	flag.Float64Var(&scn.horizon, "horizon", 600, "scenario mode: generated window, virtual seconds")
	flag.Int64Var(&scn.seed, "seed", 1, "scenario mode: workload seed (same seed = same replay)")
	flag.Parse()

	// -targets is a multi-node cluster run, which only the wire
	// transport can drive (flow IDs carry the admitting node).
	if cfg.targets != "" {
		if cfg.transport != "wire" {
			transportSet := false
			flag.Visit(func(f *flag.Flag) { transportSet = transportSet || f.Name == "transport" })
			if transportSet {
				log.Fatalf("ubacload: -targets requires -transport wire (got %q)", cfg.transport)
			}
			cfg.transport = "wire"
		}
	}
	// -transport wire is inherently a remote run: promote the default
	// mode so `ubacload -transport wire -target host:port` just works.
	if cfg.transport == "wire" {
		modeSet := false
		flag.Visit(func(f *flag.Flag) { modeSet = modeSet || f.Name == "mode" })
		if !modeSet {
			cfg.mode = "http"
		} else if cfg.mode != "http" {
			log.Fatalf("ubacload: -transport wire requires -mode http (got %q)", cfg.mode)
		}
	}

	if cfg.mode == "scenario" {
		scn.topo, scn.alpha, scn.class = cfg.topo, cfg.alpha, cfg.class
		rep, err := runScenario(scn)
		if err != nil {
			log.Fatalf("ubacload: %v", err)
		}
		printScenarioReport(os.Stdout, scn, rep)
		return
	}
	if cfg.conc < 1 || cfg.hold < 1 || cfg.batch < 0 || cfg.duration <= 0 {
		log.Fatal("ubacload: -conc and -hold must be >= 1, -batch >= 0, -duration > 0")
	}
	switch cfg.durability {
	case "off", "async", "sync":
	default:
		log.Fatalf("ubacload: -durability %q not one of off|async|sync", cfg.durability)
	}
	if cfg.durability != "off" && cfg.mode != "inproc" {
		log.Fatal("ubacload: -durability applies to -mode inproc (http mode measures whatever the daemon was started with)")
	}
	var (
		d     driver
		pairs []pairSpec
		err   error
	)
	switch cfg.mode {
	case "inproc":
		d, pairs, err = newInprocDriver(cfg.topo, cfg.class, cfg.alpha, cfg.durability, cfg.dataDir)
	case "http":
		switch cfg.transport {
		case "http", "":
			d, pairs, err = newHTTPDriver(cfg.target, cfg.class, cfg.conc)
		case "wire":
			if cfg.targets != "" {
				d, pairs, err = newMultiDriver(strings.Split(cfg.targets, ","), cfg.class, cfg.conns, cfg.pipeline)
			} else {
				d, pairs, err = newWireDriver(cfg.target, cfg.class, cfg.conns, cfg.pipeline)
			}
		default:
			err = fmt.Errorf("unknown -transport %q (http | wire)", cfg.transport)
		}
	default:
		err = fmt.Errorf("unknown -mode %q", cfg.mode)
	}
	if err != nil {
		log.Fatalf("ubacload: %v", err)
	}
	var fpBefore fpCounts
	fp, haveFP := d.(fastpather)
	if haveFP {
		fpBefore, haveFP = fp.fastpath()
	}
	rep, err := runLoad(d, pairs, cfg)
	if err != nil {
		log.Fatalf("ubacload: %v", err)
	}
	if haveFP {
		if after, ok := fp.fastpath(); ok {
			rep.FP = after.sub(fpBefore)
			rep.HaveFP = true
		}
	}
	var perNode []struct {
		Addr     string
		Admitted uint64
	}
	if md, ok := d.(*multiDriver); ok {
		perNode = md.perNode()
	}
	if c, ok := d.(interface{ close() error }); ok {
		if err := c.close(); err != nil {
			log.Printf("ubacload: close: %v", err)
		}
	}
	printReport(os.Stdout, cfg, rep)
	for _, n := range perNode {
		fmt.Printf("  node %s: admitted %d (%.0f admits/s)\n",
			n.Addr, n.Admitted, float64(n.Admitted)/rep.Elapsed.Seconds())
	}
}

// printReport writes the human summary and, with -bench, the
// benchjson-compatible benchmark lines.
func printReport(w io.Writer, cfg loadConfig, rep *report) {
	attempts := rep.Admitted + rep.Rejected
	ratio := 0.0
	if attempts > 0 {
		ratio = float64(rep.Rejected) / float64(attempts)
	}
	durTag := ""
	if cfg.durability != "" && cfg.durability != "off" {
		durTag = "/durability=" + cfg.durability
	}
	// Wire runs get their own bench series; http/inproc names stay as
	// PR 4 established them so baselines keep comparing.
	transTag, transNote := "", ""
	if cfg.transport == "wire" {
		transTag = fmt.Sprintf("/transport=wire/conns=%d/pipeline=%d", cfg.conns, cfg.pipeline)
		transNote = fmt.Sprintf(" transport=wire conns=%d pipeline=%d", cfg.conns, cfg.pipeline)
	}
	fmt.Fprintf(w, "ubacload: mode=%s%s conc=%d batch=%d hold=%d durability=%s elapsed=%s\n",
		cfg.mode, transNote, cfg.conc, cfg.batch, cfg.hold, cfg.durability, rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  admitted %d (%.0f admits/s)  rejected %d (ratio %.4f)  errors %d\n",
		rep.Admitted, float64(rep.Admitted)/rep.Elapsed.Seconds(), rep.Rejected, ratio, rep.Errors)
	fmt.Fprintf(w, "  decision latency p50=%s p99=%s max=%s (%d round-trips)\n",
		rep.P50, rep.P99, rep.Max, rep.Rounds)
	if rep.HaveFP {
		fmt.Fprintf(w, "  fast-path hit ratio %.4f (hit %d stale %d fallback %d)\n",
			rep.FP.hitRatio(), rep.FP.hits, rep.FP.stale, rep.FP.fallback)
	}
	if cfg.bench && attempts > 0 {
		fpTag := ""
		if rep.HaveFP {
			fpTag = fmt.Sprintf("\t%.4f fastpath_hit_ratio", rep.FP.hitRatio())
		}
		fmt.Fprintf(w, "goos: %s\ngoarch: %s\n", runtime.GOOS, runtime.GOARCH)
		fmt.Fprintf(w, "BenchmarkUbacload/mode=%s%s/conc=%d/batch=%d%s \t%d\t%.1f ns/op\t%.0f admits/s\t%.4f reject_ratio%s\n",
			cfg.mode, transTag, cfg.conc, cfg.batch, durTag, attempts,
			float64(rep.Elapsed.Nanoseconds())/float64(attempts),
			float64(rep.Admitted)/rep.Elapsed.Seconds(), ratio, fpTag)
	}
}
