// Command bench is the repo's one performance benchmark: it builds
// cmd/ubacd from the tree, runs the real daemon(s) as subprocesses on
// loopback, drives them over the wire transport from this process,
// checks every verdict, and prints each metric by name with its unit.
// See README.md for the workloads, the metric glossary and how the
// layer metrics are expected to move the end-to-end ones.
//
// One run (what BENCHMARK.json's command invokes through run.sh):
//
//	go run ./bench --workload wire_batch --seed 1 --seconds 20 --trace 0
//
// prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
// The full set, both kinds of run for every workload:
//
//	go run ./bench -seed 1 -out result.json
//	go run ./bench -selfcheck            # the set twice, compared within the bounds
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload: "+workloadNames()+" (empty = the full set)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same op schedule")
		seconds   = flag.Int("seconds", runSeconds, "measurement window in seconds")
		trace     = flag.Int("trace", 0, "0 = end-to-end metrics against real daemons, 1 = per-layer metrics (probes + traced in-process assembly)")
		out       = flag.String("out", "", "full set: write the result document to this file")
		traceOut  = flag.String("trace-out", "", "traced run: write every span to this file")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare every end-to-end metric within its bound")
		compare   = flag.Bool("compare", false, "compare two saved result documents: -compare old.json new.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *seconds < 1:
		fatal(2, "-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		fatal(2, "-trace must be 0 or 1")
	}

	ws, err := openWorkspace()
	if err != nil {
		fatal(1, "%v", err)
	}
	// An interrupted run must not leave daemons or scratch behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		running.killAll()
		ws.close()
		os.Exit(130)
	}()
	code := 0
	switch {
	case *workload != "":
		if _, ok := workloadByName(*workload); !ok {
			ws.close()
			fatal(2, "unknown workload %q (have %s)", *workload, workloadNames())
		}
		code = runOne(ws, *workload, *seed, *seconds, *trace == 1, *traceOut)
	case *selfcheck:
		code = runSelfcheck(ws, *seed, *seconds)
	default:
		code = runSet(ws, *seed, *seconds, *out)
	}
	ws.close()
	os.Exit(code)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += " | "
		}
		s += w.Name
	}
	return s
}

// runResult is one run in the shape the driver reads: exactly these
// four keys.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDoc is one run with everything a reader wants beside the numbers.
type runDoc struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	runResult
	Counts     opCounts `json:"counts"`
	Violations []string `json:"violations,omitempty"`
	// Latency sample accounting for admit_p50_us / admit_p99_us.
	LatencySamples uint64    `json:"latency_samples,omitempty"`
	TailPercentile float64   `json:"tail_percentile,omitempty"` // highest percentile with >= 10 samples beyond it
	TailUS         float64   `json:"tail_us,omitempty"`
	SetupsS        []float64 `json:"setup_samples_s,omitempty"`
	RejectRatio    *float64  `json:"reject_ratio,omitempty"`
	OracleRatio    *float64  `json:"oracle_reject_ratio,omitempty"`
	LagP50US       float64   `json:"generator_lag_p50_us,omitempty"`
	LagP99US       float64   `json:"generator_lag_p99_us,omitempty"`
	ElapsedS       float64   `json:"elapsed_s"`
	// Per-slice series behind the estimators.
	SliceAdmitsPerS []float64 `json:"slice_admits_per_s,omitempty"`
	SliceP50US      []float64 `json:"slice_admit_p50_us,omitempty"`
	SliceP99US      []float64 `json:"slice_admit_p99_us,omitempty"`
	SliceCPUUS      []float64 `json:"slice_cpu_us_per_op,omitempty"`
}

// execute performs one run and never prints.
func execute(ws *workspace, wl string, seed int64, seconds int, trace bool, traceOut string) (*runDoc, error) {
	start := time.Now()
	doc := &runDoc{Workload: wl, Seed: seed, Seconds: seconds, Trace: trace}
	if trace {
		lr, err := runLayers(ws, wl, seed, seconds, traceOut)
		if err != nil {
			return nil, err
		}
		doc.Metrics = metricSet(perLayer, lr.layer)
		doc.Counts, doc.Violations = lr.counts, lr.checks.Violations
	} else {
		dep, err := configure(nil)
		if err != nil {
			return nil, err
		}
		setups := 5
		if params[wl].cluster {
			setups = 3 // a cluster boot is a one-second election timer
		}
		rr, err := runReal(ws, dep, wl, seed, makeWindow(time.Duration(seconds)*time.Second), setups, false)
		if err != nil {
			return nil, err
		}
		doc.Metrics = metricSet(endToEnd, rr.e2e)
		doc.Counts, doc.Violations = rr.counts, rr.checks.Violations
		doc.LatencySamples, doc.TailPercentile, doc.TailUS = rr.stats.latencySamples, rr.stats.tailQ, rr.stats.tailUS
		doc.SetupsS = rr.setups
		doc.SliceAdmitsPerS, doc.SliceP50US, doc.SliceP99US, doc.SliceCPUUS = rr.stats.sliceRates, rr.stats.sliceP50US, rr.stats.sliceP99US, rr.sliceCPUUS
		if rr.open != nil {
			doc.RejectRatio, doc.OracleRatio = &rr.open.rejectRatio, &rr.open.oracleRatio
			doc.LagP50US, doc.LagP99US = rr.open.lagP50US, rr.open.lagP99US
		}
	}
	doc.Correct = len(doc.Violations) == 0
	doc.Attempted = doc.Counts.Attempted
	doc.Failed = doc.Counts.failed()
	doc.ElapsedS = time.Since(start).Seconds()
	return doc, nil
}

// runOne is the driver's entry: one run, one result line.
func runOne(ws *workspace, wl string, seed int64, seconds int, trace bool, traceOut string) int {
	doc, err := execute(ws, wl, seed, seconds, trace, traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl, err)
		return 1
	}
	printRun(os.Stderr, doc)
	line, err := json.Marshal(doc.runResult)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !doc.Correct {
		return 1
	}
	return 0
}
