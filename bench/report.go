package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envBlock is the environment every result document carries: numbers
// from different boxes, Go versions or commits are not comparable.
type envBlock struct {
	NProc            int    `json:"nproc"`
	BenchGOMAXPROCS  int    `json:"bench_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Network          string `json:"network"`
	Disk             string `json:"disk"`
}

func readEnv(ws *workspace) envBlock {
	e := envBlock{
		NProc:           runtime.NumCPU(),
		BenchGOMAXPROCS: runtime.GOMAXPROCS(0),
		// ubacd is started without GOMAXPROCS in its environment beyond
		// what this process inherited, so it takes the Go default.
		DaemonGOMAXPROCS: runtime.NumCPU(),
		CPUModel:         "unknown",
		GoVersion:        runtime.Version(),
		Commit:           "unknown",
		Network:          "loopback, not a real link",
		Disk:             "fsync latency is the sandbox disk's",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = ws.root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// setDoc is the full set: every workload, end to end and traced.
type setDoc struct {
	Env       envBlock     `json:"env"`
	Seed      int64        `json:"seed"`
	Seconds   int          `json:"seconds"`
	Workloads []string     `json:"workloads"`
	EndToEnd  []metricSpec `json:"end_to_end"`
	Runs      []*runDoc    `json:"runs"`
}

func printRun(w io.Writer, d *runDoc) {
	kind := "end-to-end"
	specs := endToEnd
	if d.Trace {
		kind, specs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d seconds=%d  (%.1fs)\n", d.Workload, kind, d.Seed, d.Seconds, d.ElapsedS)
	for _, s := range specs {
		v := d.Metrics[s.Name]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", s.Name, v.Value, v.Unit)
		if !d.Trace {
			line += fmt.Sprintf("  bound %.2f (%s is better)", s.Bound, s.Better)
		}
		fmt.Fprintln(w, line)
	}
	c := d.Counts
	fmt.Fprintf(w, "  ops: attempted %d failed %d (transport %d, bad verdicts %d, dropped %d); admitted %d torn down %d rejected %d of which spurious %d\n",
		c.Attempted, c.failed(), c.Transport, c.BadVerdict, c.Dropped, c.Admitted, c.Teardowns, c.Rejected, c.Spurious)
	if d.LatencySamples > 0 {
		fmt.Fprintf(w, "  latency: %d samples; highest supported percentile p%g = %.1f us\n", d.LatencySamples, d.TailPercentile*100, d.TailUS)
	}
	if d.RejectRatio != nil {
		fmt.Fprintf(w, "  reject ratio %.4f, exact-walk oracle %.4f; generator lag p50 %.1f us p99 %.1f us\n", *d.RejectRatio, *d.OracleRatio, d.LagP50US, d.LagP99US)
	}
	for _, v := range d.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

// collectSet runs every workload both ways.
func collectSet(ws *workspace, seed int64, seconds int) (*setDoc, error) {
	set := &setDoc{Env: readEnv(ws), Seed: seed, Seconds: seconds, EndToEnd: endToEnd}
	for _, w := range workloads {
		set.Workloads = append(set.Workloads, w.Name)
		for _, trace := range []bool{false, true} {
			doc, err := execute(ws, w.Name, seed, seconds, trace, "")
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			printRun(os.Stdout, doc)
			set.Runs = append(set.Runs, doc)
		}
	}
	return set, nil
}

func (s *setDoc) correct() bool {
	for _, r := range s.Runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

func runSet(ws *workspace, seed int64, seconds int, out string) int {
	set, err := collectSet(ws, seed, seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if out != "" {
		data, _ := json.MarshalIndent(set, "", "  ")
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !set.correct() {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed (see VIOLATION lines)")
		return 1
	}
	return 0
}

// compareSets applies the end-to-end bounds to two sets' runs, old as
// the base, and reports PASS/FAIL per (metric, workload).
func compareSets(w io.Writer, old, nu *setDoc) (pass bool) {
	pass = true
	index := func(s *setDoc) map[string]*runDoc {
		m := make(map[string]*runDoc)
		for _, r := range s.Runs {
			if !r.Trace {
				m[r.Workload] = r
			}
		}
		return m
	}
	a, b := index(old), index(nu)
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-15s %14s %14s %9s %6s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "")
	for _, name := range names {
		ra, rb := a[name], b[name]
		if rb == nil {
			fmt.Fprintf(w, "%-16s missing from the second set  FAIL\n", name)
			pass = false
			continue
		}
		for _, s := range endToEnd {
			va, vb := ra.Metrics[s.Name].Value, rb.Metrics[s.Name].Value
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / va
				if s.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "PASS"
			if worse > s.Bound {
				verdict = "FAIL"
				pass = false
			}
			fmt.Fprintf(w, "%-16s %-15s %14.4f %14.4f %+8.2f%% %5.0f%%  %s\n", name, s.Name, va, vb, 100*worse, 100*s.Bound, verdict)
		}
	}
	return pass
}

func runSelfcheck(ws *workspace, seed int64, seconds int) int {
	start := time.Now()
	first, err := collectSet(ws, seed, seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	second, err := collectSet(ws, seed, seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\nselfcheck: two sets of the same tree, seed %d, %d s windows (%.0f s total)\n", seed, seconds, time.Since(start).Seconds())
	pass := compareSets(os.Stdout, first, second)
	if !first.correct() || !second.correct() {
		fmt.Println("selfcheck: a correctness check failed")
		return 1
	}
	if !pass {
		fmt.Println("selfcheck: FAIL")
		return 1
	}
	fmt.Println("selfcheck: all PASS")
	return 0
}

func compareFiles(oldPath, newPath string) int {
	load := func(path string) (*setDoc, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s setDoc
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	old, err := load(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	nu, err := load(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if !compareSets(os.Stdout, old, nu) {
		return 1
	}
	return 0
}
