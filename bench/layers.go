package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ubac/internal/admission"
	"ubac/internal/config"
	"ubac/internal/routes"
	"ubac/internal/telemetry"
	"ubac/internal/wal"
	"ubac/internal/wire"
)

// Per-layer probes: each times public calls of one module in
// isolation, from this process. They do not depend on the workload
// (the WAL group is the exception: it runs only where the workload has
// a WAL, so the bypass workloads report wal.* = 0).

// sinkVar keeps probe results alive so the compiler cannot drop the
// measured calls.
var sinkVar atomic.Uint64

// perOp runs fn(n) — n operations — until at least budget has been
// spent and returns nanoseconds per operation.
func perOp(budget time.Duration, n int, fn func(n int)) float64 {
	fn(n) // warm caches and pools
	var ops int
	start := time.Now()
	for time.Since(start) < budget {
		fn(n)
		ops += n
	}
	return float64(time.Since(start)) / float64(ops)
}

const probeBudget = 60 * time.Millisecond

// captureSink records configuration-time telemetry.
type captureSink struct {
	telemetry.Nop
	mu         sync.Mutex
	solveNS    time.Duration
	iterations int
	selectNS   time.Duration
}

func (c *captureSink) FixedPoint(fp telemetry.FixedPoint) {
	c.mu.Lock()
	c.solveNS += fp.Elapsed
	c.iterations += fp.Iterations
	c.mu.Unlock()
}

func (c *captureSink) RouteSelect(rs telemetry.RouteSelect) {
	c.mu.Lock()
	c.selectNS += rs.Elapsed
	c.mu.Unlock()
}

// probeConfig times the configuration step (Section 5) the daemon pays
// at boot, and the Section 5.3 maximum-utilization search.
func probeConfig(out map[string]float64) (*deployment, error) {
	cs := &captureSink{}
	start := time.Now()
	dep, err := configure(cs)
	if err != nil {
		return nil, err
	}
	out["core.configure_ms"] = ms(time.Since(start))
	out["routing.select_ms"] = ms(cs.selectNS)
	out["delay.solve_ms"] = ms(cs.solveNS)
	out["delay.iterations"] = float64(cs.iterations)

	fresh, err := configure(nil)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := fresh.sys.MaxUtilization(benchClass); err != nil {
		return nil, fmt.Errorf("maxutil: %w", err)
	}
	out["config.maxutil_s"] = time.Since(start).Seconds()
	return dep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeWireCodec times the frame codec on a 64-op admit frame.
func probeWireCodec(out map[string]float64) {
	const ops = 64
	body := make([]byte, 0, ops*12)
	for i := 0; i < ops; i++ {
		body = binary.LittleEndian.AppendUint32(body, 0)
		body = binary.LittleEndian.AppendUint32(body, uint32(i%19))
		body = binary.LittleEndian.AppendUint32(body, uint32((i+1)%19))
	}
	var buf []byte
	out["wire.encode_ns_per_op"] = perOp(probeBudget, 1000, func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendFrame(buf[:0], wire.FrameAdmit, 0, ops, uint64(i), body)
		}
	}) / ops
	var consumed int
	out["wire.decode_ns_per_op"] = perOp(probeBudget, 1000, func(n int) {
		for i := 0; i < n; i++ {
			_, c, _ := wire.DecodeFrame(buf)
			consumed += c
		}
	}) / ops
	sinkVar.Add(uint64(consumed))
}

// stubBackend answers every op instantly: what is left is the wire
// layer's own forwarding cost.
type stubBackend struct {
	classes []string
	set     *routes.Set
	next    atomic.Uint64
}

func (s *stubBackend) AdmitBatch(items []admission.BatchItem, results []admission.BatchResult) []admission.BatchResult {
	results = results[:0]
	base := s.next.Add(uint64(len(items)))
	for i := range items {
		results = append(results, admission.BatchResult{ID: admission.FlowID(base + uint64(i))})
	}
	return results
}

func (s *stubBackend) TeardownBatch(ids []admission.FlowID, errs []error) []error {
	errs = errs[:0]
	for range ids {
		errs = append(errs, nil)
	}
	return errs
}

func (s *stubBackend) Classes() []string { return s.classes }

func (s *stubBackend) ClassRoutes(string) (*routes.Set, error) { return s.set, nil }

// probeWireStub drives the batch shape through a wire.Server over the
// stub backend: wall nanoseconds per op of bare forwarding.
func probeWireStub(dep *deployment, out map[string]float64) error {
	ctrl, err := dep.controller()
	if err != nil {
		return err
	}
	set, err := ctrl.ClassRoutes(benchClass)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := wire.NewServer(&stubBackend{classes: ctrl.Classes(), set: set}, wire.Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		srv.Shutdown(ctx)
		cancel()
		<-done
	}()
	c, err := wire.Dial(wire.ClientOptions{Addr: ln.Addr().String(), Conns: 2})
	if err != nil {
		return err
	}
	defer c.Close()
	const window = 300 * time.Millisecond
	var ops atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < batchShape.clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := make([]wire.AdmitReq, batchShape.frameOps)
			ids := make([]uint64, batchShape.frameOps)
			var res []wire.AdmitResult
			var sts []uint32
			for time.Since(start) < window {
				var err error
				if res, err = c.Admit(reqs, res[:0]); err != nil {
					return
				}
				for i, r := range res {
					ids[i] = r.ID
				}
				if sts, err = c.Teardown(ids, sts[:0]); err != nil {
					return
				}
				ops.Add(uint64(2 * len(reqs)))
			}
		}()
	}
	wg.Wait()
	if n := ops.Load(); n > 0 {
		out["wire.stub_loop_ns_per_op"] = float64(time.Since(start)) / float64(n)
	}
	return nil
}

// probeAdmission times the controller's public calls in this process.
func probeAdmission(dep *deployment, out map[string]float64) error {
	pairs := dep.pairs

	// Singleton admit and teardown, no telemetry: chunks of flows are
	// admitted (timed), then torn down (timed).
	ctrl, err := dep.controller()
	if err != nil {
		return err
	}
	const chunk = 2048
	ids := make([]admission.FlowID, chunk)
	var admitNS, teardownNS time.Duration
	var cycles int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for start := time.Now(); time.Since(start) < 2*probeBudget; cycles++ {
		t0 := time.Now()
		for i := range ids {
			p := pairs[i%len(pairs)]
			if ids[i], err = ctrl.Admit(benchClass, p[0], p[1]); err != nil {
				return fmt.Errorf("admit probe: %w", err)
			}
		}
		t1 := time.Now()
		for _, id := range ids {
			if err := ctrl.Teardown(id); err != nil {
				return fmt.Errorf("teardown probe: %w", err)
			}
		}
		admitNS += t1.Sub(t0)
		teardownNS += time.Since(t1)
	}
	runtime.ReadMemStats(&ms1)
	n := float64(cycles * chunk)
	out["admission.admit_ns"] = float64(admitNS) / n
	out["admission.teardown_ns"] = float64(teardownNS) / n
	out["admission.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / (2 * n)

	// Batch of 64 admits then 64 teardowns, per op.
	items := make([]admission.BatchItem, batchShape.frameOps)
	for i := range items {
		p := pairs[i%len(pairs)]
		items[i] = admission.BatchItem{Class: benchClass, Src: p[0], Dst: p[1]}
	}
	var results []admission.BatchResult
	var errs []error
	fids := make([]admission.FlowID, len(items))
	out["admission.batch_ns_per_op"] = perOp(probeBudget, 2*len(items), func(int) {
		results = ctrl.AdmitBatch(items, results[:0])
		for i, r := range results {
			fids[i] = r.ID
		}
		errs = ctrl.TeardownBatch(fids, errs[:0])
	})

	// Reject on a saturated route: fill one pair, then time refusals.
	full, err := dep.controller()
	if err != nil {
		return err
	}
	p := pairs[0]
	for {
		if _, err := full.Admit(benchClass, p[0], p[1]); err != nil {
			break
		}
	}
	var rejects int
	out["admission.reject_ns"] = perOp(probeBudget, 1000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := full.Admit(benchClass, p[0], p[1]); err != nil {
				rejects++
			}
		}
	})
	sinkVar.Add(uint64(rejects))
	return nil
}

// cycleNS is nanoseconds per op of an admit+teardown cycle over the
// route table, through AdmitWithTenant.
func cycleNS(ctrl *admission.Controller, pairs [][2]int) float64 {
	var k int
	return perOp(probeBudget, 1000, func(n int) {
		for i := 0; i < n; i++ {
			p := pairs[k%len(pairs)]
			k++
			if id, err := ctrl.AdmitWithTenant(benchClass, "tenant-a", p[0], p[1]); err == nil {
				ctrl.Teardown(id)
			}
		}
	}) / 2
}

// probeTelemetryPolicy times the shipped sink and each policy as the
// difference they make to an in-process admit+teardown cycle.
func probeTelemetryPolicy(dep *deployment, out map[string]float64) error {
	bare, err := dep.controller()
	if err != nil {
		return err
	}
	off := cycleNS(bare, dep.pairs)

	sink := telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewRing(4096))
	on, err := dep.controller()
	if err != nil {
		return err
	}
	on.SetSink(sink)
	out["telemetry.on_off_delta_ns"] = cycleNS(on, dep.pairs) - off

	d := telemetry.Decision{FlowID: 1, Class: benchClass, Src: 0, Dst: 1, Rate: 32000, Verdict: telemetry.Admitted, Bottleneck: -1, Latency: 100, When: time.Now()}
	out["telemetry.decision_ns"] = perOp(probeBudget, 1000, func(n int) {
		for i := 0; i < n; i++ {
			sink.Decision(d)
		}
	})

	for name, spec := range map[string]string{
		"policy.token_bucket_ns":     "token_bucket:rate=1e9,burst=1e9",
		"policy.slo_gated_ns":        "slo_gated:standard=0.99,sheddable=0.98",
		"policy.reserve_headroom_ns": "reserve_headroom:fraction=0.05",
	} {
		pc, err := config.ParsePolicySpec(spec)
		if err != nil {
			return err
		}
		ctrl, err := dep.controller()
		if err != nil {
			return err
		}
		pol, err := pc.Build(ctrl.MaxUtilization)
		if err != nil {
			return err
		}
		ctrl.SetPolicy(pol)
		out[name] = cycleNS(ctrl, dep.pairs) - off
	}
	return nil
}

// probeDaemon times the live daemon's cheap surfaces: wire ping, the
// HTTP adapter, and a /metrics scrape.
func probeDaemon(ws *workspace, dep *deployment, out map[string]float64) error {
	r, _, err := ws.launch(dep, workloadParams{}, "probe")
	if err != nil {
		return err
	}
	defer r.stop()
	d := r.daemons[0]

	c, err := wire.Dial(wire.ClientOptions{Addr: d.wireAddr})
	if err != nil {
		return err
	}
	defer c.Close()
	h := newHist()
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if err := c.Ping(); err != nil {
			return err
		}
		h.record(int64(time.Since(t0)))
	}
	out["wire.ping_rtt_us"] = h.quantile(0.5) / 1e3

	base := "http://" + d.httpAddr
	post := func(path string, body []byte) ([]byte, error) {
		resp, err := httpClient.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	src, dst := dep.net.Router(dep.pairs[0][0]).Name, dep.net.Router(dep.pairs[0][1]).Name
	one, _ := json.Marshal(map[string]string{"class": benchClass, "src": src, "dst": dst})
	h = newHist()
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		body, err := post("/v1/flows", one)
		if err != nil {
			return err
		}
		h.record(int64(time.Since(t0)))
		var got struct {
			ID uint64 `json:"id"`
		}
		if err := json.Unmarshal(body, &got); err != nil || got.ID == 0 {
			return fmt.Errorf("http admit probe: %s", body)
		}
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/flows/%d", base, got.ID), nil)
		resp, err := httpClient.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	out["ubacd.http_admit_rtt_us_p50"] = h.quantile(0.5) / 1e3

	type flowReq struct {
		Class string `json:"class"`
		Src   string `json:"src"`
		Dst   string `json:"dst"`
	}
	var admits []flowReq
	for i := 0; i < batchShape.frameOps; i++ {
		p := dep.pairs[i%len(dep.pairs)]
		admits = append(admits, flowReq{benchClass, dep.net.Router(p[0]).Name, dep.net.Router(p[1]).Name})
	}
	admitBody, _ := json.Marshal(map[string]any{"admit": admits})
	const rounds = 50
	start := time.Now()
	for i := 0; i < rounds; i++ {
		body, err := post("/v1/flows:batch", admitBody)
		if err != nil {
			return err
		}
		var got struct {
			Admit []struct {
				ID uint64 `json:"id"`
			} `json:"admit"`
		}
		if err := json.Unmarshal(body, &got); err != nil || len(got.Admit) != len(admits) {
			return fmt.Errorf("http batch probe: %s", body)
		}
		ids := make([]uint64, 0, len(got.Admit))
		for _, a := range got.Admit {
			ids = append(ids, a.ID)
		}
		tdBody, _ := json.Marshal(map[string]any{"teardown": ids})
		if _, err := post("/v1/flows:batch", tdBody); err != nil {
			return err
		}
	}
	out["ubacd.http_batch_ns_per_op"] = float64(time.Since(start)) / float64(rounds*2*len(admits))

	h = newHist()
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := d.scrape(); err != nil {
			return err
		}
		h.record(int64(time.Since(t0)))
	}
	out["telemetry.scrape_ms"] = h.quantile(0.5) / 1e6
	return nil
}

// probeWAL times the log's own calls: a lone sync-mode commit, a
// snapshot of a loaded registry, and recovery of a known record count.
func probeWAL(ws *workspace, dep *deployment, out map[string]float64) error {
	dir := filepath.Join(ws.runDir, "walprobe")
	defer os.RemoveAll(dir)

	// One caller in ModeSync: every append waits for its own fsync.
	ctrl, err := dep.controller()
	if err != nil {
		return err
	}
	syncDir := filepath.Join(dir, "sync")
	log, err := wal.Open(wal.Options{Dir: syncDir, Mode: wal.ModeSync, Fingerprint: ctrl.Fingerprint()})
	if err != nil {
		return err
	}
	h := newHist()
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := log.AppendAdmit(uint64(i+1), uint64(i+1), 0, 0); err != nil {
			log.Close()
			return err
		}
		h.record(int64(time.Since(t0)))
	}
	log.Close()
	out["wal.sync_commit_us_p50"] = h.quantile(0.5) / 1e3

	// A journaled controller: churn a known number of records through
	// it, snapshot while it holds flows, then recover the directory.
	recDir := filepath.Join(dir, "recover")
	log, err = wal.Open(wal.Options{Dir: recDir, Mode: wal.ModeAsync, Fingerprint: ctrl.Fingerprint()})
	if err != nil {
		return err
	}
	ctrl.SetJournal(log)
	items := make([]admission.BatchItem, batchShape.frameOps)
	for i := range items {
		p := dep.pairs[i%len(dep.pairs)]
		items[i] = admission.BatchItem{Class: benchClass, Src: p[0], Dst: p[1]}
	}
	var results []admission.BatchResult
	var errs []error
	var held []admission.FlowID
	// churn pushes 2000 × 64 admits, and as many teardowns less the
	// held tail, through the journal.
	churn := func() {
		for i := 0; i < 2000; i++ {
			results = ctrl.AdmitBatch(items, results[:0])
			for _, r := range results {
				if r.Err == nil {
					held = append(held, r.ID)
				}
			}
			if over := len(held) - batchShape.clients*batchShape.hold; over > 0 {
				errs = ctrl.TeardownBatch(held[:over], errs[:0])
				held = append(held[:0], held[over:]...)
			}
		}
	}
	churn()
	t0 := time.Now()
	if err := log.WriteSnapshot(ctrl.MarshalRegistry); err != nil {
		log.Close()
		return err
	}
	out["wal.snapshot_ms"] = ms(time.Since(t0))
	churn() // more records after the snapshot, so recovery replays a tail
	if err := log.Close(); err != nil {
		return err
	}
	fresh, err := dep.controller()
	if err != nil {
		return err
	}
	t0 = time.Now()
	info, err := wal.Recover(recDir, fresh.Fingerprint(), fresh)
	if err != nil {
		return fmt.Errorf("wal recover probe: %w", err)
	}
	if err := fresh.FinishRecovery(); err != nil {
		return err
	}
	took := time.Since(t0)
	out["wal.recover_s"] = took.Seconds()
	if n := info.ReplayedAdmits + info.ReplayedTeardowns; n > 0 {
		out["wal.recover_ns_per_record"] = float64(took) / float64(n)
	}
	if got, want := fresh.Stats().Active, int64(len(held)); got != want {
		return fmt.Errorf("wal recover probe: recovered %d active flows, want %d", got, want)
	}
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
