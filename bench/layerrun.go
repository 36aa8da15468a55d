package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// asmResult is one in-process assembly run.
type asmResult struct {
	stats   windowStats
	counts  opCounts
	checks  checks
	summary traceSummary
	layer   map[string]float64 // trace-derived per-layer metrics (traced runs)
}

// runAssembly drives one workload's shape against the in-process
// assembly for w, with or without the tracing decorators. traceOut, if
// set, receives the span dump of a traced run.
func runAssembly(dep *deployment, wl string, seed int64, w window, traced bool, scratchDir, traceOut string) (*asmResult, error) {
	p := params[wl]
	res := &asmResult{layer: map[string]float64{}}
	walDir := ""
	if p.wal {
		walDir = filepath.Join(scratchDir, fmt.Sprintf("asm-wal-%d", time.Now().UnixNano()))
		defer os.RemoveAll(walDir)
	}
	z := newZipf(len(dep.pairs))
	pl, err := prepareLoad(z, p, w, seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	asm, err := newAssembly(dep, walDir, tr)
	if err != nil {
		return nil, err
	}
	defer asm.close()
	client, err := connect(dep, asm.addr, p.conns)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	env := &loadEnv{client: client, addr: asm.addr, dep: dep, sh: newShadow(dep), z: z, origin: time.Now(), tr: tr}
	if tr != nil {
		tr.origin = env.origin
	}
	lr, open, err := pl.run(env)
	if err != nil {
		return nil, err
	}
	res.counts = lr.counts
	drain(env, lr.held, &res.counts, false)
	res.checks.checkShadow(env.sh)
	if open != nil {
		res.checks.checkOracle(open.rejectRatio, open.oracleRatio)
	}
	if active := asm.ctrl.Stats().Active; active != 0 {
		res.checks.failf("leak: in-process controller holds %d flows after the drain", active)
	}
	res.stats = reduceWindow(lr, w)
	if !traced {
		return res, nil
	}
	// Stop the server and the WAL's syncer before reading what their
	// goroutines wrote into the tracer.
	client.Close()
	asm.close()

	s := tr.summarize(int64(w.warm), int64(w.warm+w.length))
	res.summary = s
	l := res.layer
	l["wire.self_us_per_frame"] = s.WireSelfUSPerFrame
	l["wire.ops_per_backend_call"] = s.OpsPerCall
	l["wire.frames_per_backend_call"] = s.FramesPerCall
	if res.counts.Attempted > 0 {
		l["wire.bytes_per_op"] = float64(tr.rxBytes.Load()+tr.txBytes.Load()) / float64(res.counts.Attempted)
	}
	l["admission.backend_self_ns_per_op"] = s.AdmissionSelfNSPerOp
	l["telemetry.sink_ns_per_op"] = s.SinkNSPerOp
	l["trace.residual_ratio"] = s.ResidualRatio
	fp := asm.ctrl.FastPathStats()
	if total := fp.Hits + fp.Stale + fp.Fallback; total > 0 {
		l["admission.fastpath_hit_ratio"] = float64(fp.Hits) / float64(total)
		l["admission.fastpath_stale_ratio"] = float64(fp.Stale) / float64(total)
	}
	if asm.log != nil {
		ls := asm.log.Stats()
		l["wal.journal_ns_per_op"] = s.JournalNSPerOp
		if tr.walRecs > 0 {
			l["wal.bytes_per_op"] = float64(tr.walBytes) / float64(tr.walRecs)
		}
		if ls.Fsyncs > 0 {
			l["wal.ops_per_fsync"] = float64(ls.Appends) / float64(ls.Fsyncs)
		}
		l["wal.fsync_ms_p50"] = tr.fsyncs.quantile(0.50) / 1e6
		l["wal.fsync_ms_p99"] = tr.fsyncs.quantile(0.99) / 1e6
		l["wal.disk_mb"] = float64(dirSize(walDir)) / (1 << 20)
	}
	if traceOut != "" {
		if err := tr.dump(traceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerResult is one traced run's outcome.
type layerResult struct {
	layer   map[string]float64
	counts  opCounts
	checks  checks
	summary traceSummary
}

// runLayers produces every per-layer metric for one workload: the
// module probes, a short end-to-end run for the harness and cluster
// numbers, and — except for the cluster, which cannot be assembled
// in-process — the traced and untraced assembly runs.
func runLayers(ws *workspace, wl string, seed int64, seconds int, traceOut string) (*layerResult, error) {
	p := params[wl]
	out := &layerResult{layer: map[string]float64{}}
	l := out.layer

	dep, err := probeConfig(l)
	if err != nil {
		return nil, err
	}
	probeWireCodec(l)
	if err := probeWireStub(dep, l); err != nil {
		return nil, err
	}
	if err := probeAdmission(dep, l); err != nil {
		return nil, err
	}
	if err := probeTelemetryPolicy(dep, l); err != nil {
		return nil, err
	}
	if err := probeDaemon(ws, dep, l); err != nil {
		return nil, err
	}
	if p.wal {
		if err := probeWAL(ws, dep, l); err != nil {
			return nil, err
		}
	}

	length := time.Duration(seconds) * time.Second / 4
	if p.cluster {
		length *= 2
	}
	real, err := runReal(ws, dep, wl, seed, makeWindow(length), 1, true)
	if err != nil {
		return nil, err
	}
	for k, v := range real.layer {
		l[k] = v
	}
	out.counts.add(real.counts)
	out.checks.Violations = append(out.checks.Violations, real.checks.Violations...)
	if p.cluster {
		return out, nil
	}

	w := makeWindow(length)
	traced, err := runAssembly(dep, wl, seed, w, true, ws.runDir, traceOut)
	if err != nil {
		return nil, err
	}
	plain, err := runAssembly(dep, wl, seed, w, false, ws.runDir, "")
	if err != nil {
		return nil, err
	}
	for k, v := range traced.layer {
		l[k] = v
	}
	out.summary = traced.summary
	for _, r := range []*asmResult{traced, plain} {
		out.counts.add(r.counts)
		out.checks.Violations = append(out.checks.Violations, r.checks.Violations...)
	}
	// What the decorators cost: lost throughput on the closed loop,
	// added median latency on the open loop.
	if p.closed != nil {
		if plain.stats.admitsPerS > 0 {
			l["trace.overhead_ratio"] = 1 - traced.stats.admitsPerS/plain.stats.admitsPerS
		}
	} else if plain.stats.p50US > 0 {
		l["trace.overhead_ratio"] = traced.stats.p50US/plain.stats.p50US - 1
	}
	return out, nil
}
