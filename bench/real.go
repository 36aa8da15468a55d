package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ubac/internal/wire"
)

// The end-to-end run: real ubacd subprocesses on loopback, driven over
// the wire transport by this process.

// clusterTimers are the cluster's timers for the benchmark: the values
// the repo's own cluster smoke and EXPERIMENTS.md X-10 use. The
// defaults (3 s suspicion) would make every cold boot a 3 s sleep.
const clusterTimers = "heartbeat_ms=50,suspicion_ms=1000,ladder_ms=300,lease_ttl_ms=500"

// probeNodeID is the node id the bench signs its heartbeat probes
// with; no member has it.
const probeNodeID = 255

// rig is the set of daemons one workload runs against.
type rig struct {
	ws      *workspace
	daemons []*daemon
	dataDir []string // per daemon, "" when non-durable
	target  int      // daemon the load generator drives
	auth    int      // daemon whose headroom reflects the ledger (cluster authority, else target)
	args    [][]string
	ports   []int
	seq     int
}

// launch starts the workload's daemon(s) and waits until the target
// admits a probe flow; it returns the time from the first exec to that
// admit — the configuration step, WAL recovery and, for a cluster, the
// authority election and first lease grant.
func (ws *workspace) launch(dep *deployment, p workloadParams, tag string) (*rig, time.Duration, error) {
	r := &rig{ws: ws}
	n := 1
	if p.cluster {
		n = 3
	}
	ports, err := freePorts(2 * n)
	if err != nil {
		return nil, 0, err
	}
	r.ports = ports
	var members []string
	for i := 0; i < n; i++ {
		members = append(members, fmt.Sprintf("%d@127.0.0.1:%d", i, ports[2*i+1]))
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		var extra []string
		dir := ""
		if p.wal || p.cluster {
			dir = filepath.Join(ws.runDir, fmt.Sprintf("%s-data%d", tag, i))
			extra = append(extra, "-data-dir", dir, "-fsync", "async")
		}
		if p.cluster {
			extra = append(extra, "-cluster", fmt.Sprintf("id=%d,members=%s,%s", i, strings.Join(members, ";"), clusterTimers))
		}
		d, err := ws.startDaemon(fmt.Sprintf("%s-node%d", tag, i), ports[2*i], ports[2*i+1], extra...)
		if err != nil {
			r.kill()
			return nil, 0, err
		}
		r.daemons = append(r.daemons, d)
		r.dataDir = append(r.dataDir, dir)
		r.args = append(r.args, extra)
	}
	if p.cluster {
		r.target = 1
	}
	c, err := r.daemons[r.target].waitWire(15 * time.Second)
	if err != nil {
		r.kill()
		return nil, 0, err
	}
	defer c.Close()
	if err := probeAdmit(c, dep, 15*time.Second); err != nil {
		r.kill()
		return nil, 0, fmt.Errorf("%s: %w\n%s", tag, err, r.daemons[r.target].logTail())
	}
	setup := time.Since(start)
	if p.cluster {
		// Find the authority; the load must go to a member that is not it.
		r.auth = -1
		for i, d := range r.daemons {
			role, _, err := heartbeat(d.wireAddr)
			if err == nil && role == roleAuthority {
				r.auth = i
			}
		}
		if r.auth < 0 {
			r.kill()
			return nil, 0, fmt.Errorf("%s: no cluster member reports itself authority", tag)
		}
		if r.auth == r.target {
			r.target = (r.auth + 1) % n
		}
	} else {
		r.auth = r.target
	}
	return r, setup, nil
}

// probeAdmit admits and tears down one flow on the hottest route,
// retrying until the daemon serves it.
func probeAdmit(c *wire.Client, dep *deployment, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	z := newZipf(len(dep.pairs))
	p := dep.pairs[z.routes[0]]
	req := []wire.AdmitReq{{Class: dep.classIndex, Src: uint32(p[0]), Dst: uint32(p[1])}}
	for {
		res, err := c.Admit(req, nil)
		if err == nil && res[0].Status == wire.StatusOK {
			st, err := c.Teardown([]uint64{res[0].ID}, nil)
			if err != nil || st[0] != wire.StatusOK {
				return fmt.Errorf("probe flow %d did not tear down: %v %v", res[0].ID, st, err)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no probe flow admitted within %v (last: %v %v)", timeout, res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// roleAuthority is internal/cluster.RoleAuthority as the heartbeat
// response carries it.
const roleAuthority = 2

// heartbeat asks a cluster member for its role and epoch over a
// throwaway connection, using the heartbeat frame layout documented in
// internal/wire/protocol.go.
func heartbeat(addr string) (role byte, epoch uint64, err error) {
	c, err := wire.Dial(wire.ClientOptions{Addr: addr, DialTimeout: 300 * time.Millisecond, Timeout: 300 * time.Millisecond})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	body := binary.LittleEndian.AppendUint32(nil, probeNodeID)
	resp, err := c.ClusterCall(wire.FrameHeartbeat, 0, body, 300*time.Millisecond)
	if err != nil {
		return 0, 0, err
	}
	if len(resp) != wire.HeartbeatRespLen {
		return 0, 0, fmt.Errorf("heartbeat response of %d bytes", len(resp))
	}
	return resp[0], binary.LittleEndian.Uint64(resp[5:]), nil
}

// kill SIGKILLs every daemon of the rig and removes its data.
func (r *rig) kill() {
	for _, d := range r.daemons {
		d.kill()
	}
	r.removeData()
}

func (r *rig) removeData() {
	for _, dir := range r.dataDir {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
}

// stop drains every daemon gracefully.
func (r *rig) stop() {
	for _, d := range r.daemons {
		if d.alive() {
			d.cmd.Process.Signal(os.Interrupt)
		}
	}
	for _, d := range r.daemons {
		d.stop(3 * time.Second)
	}
	r.removeData()
}

// restartTarget starts the (killed) target again on the same ports and
// data directory and waits for its wire listener.
func (r *rig) restartTarget() (*wire.Client, error) {
	r.seq++
	i := r.target
	d, err := r.ws.startDaemon(fmt.Sprintf("restart%d-node%d", r.seq, i), r.ports[2*i], r.ports[2*i+1], r.args[i]...)
	if err != nil {
		return nil, err
	}
	r.daemons[i] = d
	return d.waitWire(15 * time.Second)
}

func (r *rig) cpu() (total time.Duration, per []time.Duration) {
	for _, d := range r.daemons {
		c, _ := procCPU(d.pid())
		per = append(per, c)
		total += c
	}
	return total, per
}

func (r *rig) peakRSS() int64 {
	var sum int64
	for _, d := range r.daemons {
		n, _ := procPeakRSS(d.pid())
		sum += n
	}
	return sum
}

// boundary is what the sampler reads at the window's edges.
type boundary struct {
	at      time.Time
	cpu     time.Duration
	perCPU  []time.Duration
	selfCPU time.Duration
	metrics map[string]float64 // target's /metrics, layer runs only
}

func (r *rig) readBoundary(withMetrics bool) boundary {
	b := boundary{at: time.Now()}
	b.cpu, b.perCPU = r.cpu()
	b.selfCPU, _ = procCPU(os.Getpid())
	if withMetrics {
		b.metrics, _ = r.daemons[r.target].scrape()
	}
	return b
}

// realResult is one end-to-end run's outcome.
type realResult struct {
	e2e    map[string]float64
	layer  map[string]float64 // harness and cluster per-layer metrics (layer runs)
	counts opCounts
	checks checks
	stats  windowStats
	setups []float64
	open   *openOutcome

	sliceCPUUS []float64 // daemon CPU per op, per slice
}

// runReal launches the workload's daemons (setups times, measuring
// each launch; the last one is kept), drives the window, drains,
// checks, and stops everything. layer selects the extra per-layer
// collection of a traced run: /metrics deltas, lag polling and the
// cluster's failover phase.
func runReal(ws *workspace, dep *deployment, wl string, seed int64, w window, setups int, layer bool) (*realResult, error) {
	p := params[wl]
	res := &realResult{e2e: map[string]float64{}, layer: map[string]float64{}}

	var r *rig
	for i := 0; i < setups; i++ {
		if r != nil {
			r.kill()
		}
		var took time.Duration
		var err error
		r, took, err = ws.launch(dep, p, fmt.Sprintf("%s-%d", wl, i))
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, took.Seconds())
	}
	defer func() { r.stop() }()

	client, err := connect(dep, r.daemons[r.target].wireAddr, p.conns)
	if err != nil {
		return nil, err
	}
	defer func() { client.Close() }()

	z := newZipf(len(dep.pairs))
	probe := dep.pairs[z.routes[0]]
	headroomBefore, err := settledHeadroom(r, dep, z.routes[0])
	if err != nil {
		return nil, err
	}

	pl, err := prepareLoad(z, p, w, seed)
	if err != nil {
		return nil, err
	}
	env := &loadEnv{client: client, addr: r.daemons[r.target].wireAddr, dep: dep, sh: newShadow(dep), z: z, origin: time.Now()}

	// The sampler reads daemon CPU at every slice edge (and, on layer
	// runs, /metrics at the window's two edges); on cluster layer runs a
	// second goroutine polls the followers' replication lag meanwhile.
	var b0, b1 boundary
	var lagMax float64
	windowEnd := env.origin.Add(w.warm + w.length)
	sliceCPU := make([]time.Duration, w.slices+1)
	var samplers sync.WaitGroup
	samplers.Add(1)
	go func() {
		defer samplers.Done()
		time.Sleep(time.Until(env.origin.Add(w.warm)))
		b0 = r.readBoundary(layer)
		sliceCPU[0] = b0.cpu
		for i := 1; i < w.slices; i++ {
			time.Sleep(time.Until(env.origin.Add(w.warm + time.Duration(i)*w.sliceLen())))
			sliceCPU[i], _ = r.cpu()
		}
		time.Sleep(time.Until(windowEnd))
		b1 = r.readBoundary(layer)
		sliceCPU[w.slices] = b1.cpu
	}()
	if layer && p.cluster {
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			for time.Until(windowEnd) > 0 {
				time.Sleep(250 * time.Millisecond)
				for i, d := range r.daemons {
					if i == r.auth {
						continue
					}
					if m, err := d.scrape(); err == nil && m["ubac_cluster_replication_lag_bytes"] > lagMax {
						lagMax = m["ubac_cluster_replication_lag_bytes"]
					}
				}
			}
		}()
	}

	lr, open, err := pl.run(env)
	samplers.Wait()
	if err != nil {
		return nil, err
	}
	res.open = open
	res.counts = lr.counts
	rss := r.peakRSS()

	// Post-window: everything drains in place, except that the WAL
	// workload's layer run is killed while holding and must recover to
	// exactly the held set. (Only the layer run: its window is short, and
	// the daemon replays its whole log on boot — a full window's log is
	// tens of millions of records.)
	if p.wal && layer {
		if client, err = crashAndRecover(r, dep, env, lr.held, &res.counts, &res.checks); err != nil {
			return nil, err
		}
	} else {
		drain(env, lr.held, &res.counts, false)
		checkDrained(r, probe, headroomBefore, &res.checks)
	}
	res.checks.checkShadow(env.sh)
	if open != nil {
		res.checks.checkOracle(open.rejectRatio, open.oracleRatio)
	}

	st := reduceWindow(lr, w)
	res.stats = st
	wall := b1.at.Sub(b0.at).Seconds()
	daemonCPU := (b1.cpu - b0.cpu).Seconds()
	res.e2e["setup_s"] = median(res.setups)
	res.e2e["admits_per_s"] = st.admitsPerS
	res.e2e["admit_p50_us"] = st.p50US
	res.e2e["admit_p99_us"] = st.p99US
	for i, ops := range st.sliceOps {
		if ops > 0 {
			res.sliceCPUUS = append(res.sliceCPUUS, (sliceCPU[i+1]-sliceCPU[i]).Seconds()*1e6/float64(ops))
		}
	}
	res.e2e["cpu_us_per_op"] = quantileOf(res.sliceCPUUS, quietLow)
	res.e2e["rss_mb"] = float64(rss) / (1 << 20)
	res.e2e["ok_ratio"] = 1 - res.counts.failRatio()

	res.layer["loadgen.rtt_p50_us"] = st.p50US
	res.layer["loadgen.rtt_p99_us"] = st.p99US
	if open != nil {
		res.layer["loadgen.lag_p99_us"] = open.lagP99US
	}
	if wall > 0 {
		res.layer["loadgen.cpu_busy_ratio"] = (b1.selfCPU - b0.selfCPU).Seconds() / wall
		res.layer["ubacd.cpu_busy_ratio"] = daemonCPU / wall
	}
	res.layer["fail_ratio"] = res.counts.failRatio()
	if layer && p.cluster {
		clusterLayer(res.layer, b0, b1, r, lagMax, res.counts, st)
		failover(r, dep, res.layer)
	}
	return res, nil
}

// idleHeadroom is the headroom of a route nobody is using: the
// tightest per-server capacity along it.
func idleHeadroom(dep *deployment, route int) int64 {
	idle := int64(-1)
	for _, s := range dep.paths[route] {
		if idle < 0 || dep.caps[s] < idle {
			idle = dep.caps[s]
		}
	}
	return idle
}

// ledgerResidue asks the daemon for every route's headroom and returns
// how many flow slots are missing against an idle ledger. After a
// recovery this is the ghost-flow check: a flow resurrected from the
// log holds its route's servers, and neither /v1/stats (its Active is
// derived from replay counters and over-counts when a slot's reuse was
// journaled ahead of its predecessor's teardown) nor the
// ubac_active_flows gauge (not restored by recovery) can be trusted to
// show it.
func ledgerResidue(d *daemon, dep *deployment) (int64, error) {
	var missing int64
	for route, pair := range dep.pairs {
		h, err := d.headroom(pair[0], pair[1])
		if err != nil {
			return 0, err
		}
		missing += idleHeadroom(dep, route) - int64(h)
	}
	return missing, nil
}

// settledHeadroom reads the probe route's pre-run headroom. A cluster's
// launch probe leaves a lease block on the target's edge that the next
// renewal ticks hand back, so the reading is retried until it shows the
// idle route (or three seconds pass, and the run compares against
// whatever the ledger then says).
func settledHeadroom(r *rig, dep *deployment, route int32) (int, error) {
	idle := idleHeadroom(dep, int(route))
	pair := dep.pairs[route]
	deadline := time.Now().Add(3 * time.Second)
	for {
		h, err := r.daemons[r.auth].headroom(pair[0], pair[1])
		if err != nil {
			return 0, err
		}
		if int64(h) == idle || time.Now().After(deadline) {
			return h, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkDrained is the post-drain leak check: no active flows on the
// target, and the probe route's headroom back to its pre-run value. A
// cluster's edges hand idle budget back on their renewal tick, so the
// ledger gets a few lease periods to settle.
func checkDrained(r *rig, probe [2]int, headroomBefore int, k *checks) {
	var active int64
	var after int
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		if active, err = r.daemons[r.target].activeFlows(); err != nil {
			k.failf("leak: reading the target's stats after the drain: %v", err)
			return
		}
		after, err = r.daemons[r.auth].headroom(probe[0], probe[1])
		if err != nil {
			k.failf("leak: reading headroom after the drain: %v", err)
			return
		}
		if (active == 0 && after == headroomBefore) || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	k.checkLeak(active, headroomBefore, after)
}

// crashAndRecover is the WAL workload's post-window pass: with the
// generator quiet and every acknowledged op past the async flush
// interval, SIGKILL the daemon while it holds `held`, restart it on
// the same data directory, and tear down every held id. Each must
// either tear down or be unknown, and the ledger must end idle. It
// returns the client connected to the restarted daemon.
func crashAndRecover(r *rig, dep *deployment, env *loadEnv, held []heldFlow, counts *opCounts, k *checks) (*wire.Client, error) {
	// Async mode acknowledges before the group commit; 50 flush
	// intervals later everything acknowledged is on disk.
	time.Sleep(100 * time.Millisecond)
	env.client.Close()
	r.daemons[r.target].kill()
	c, err := r.restartTarget()
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	env.client = c
	tornDown, unknown := drain(env, held, counts, true)
	ghosts, err := ledgerResidue(r.daemons[r.target], dep)
	if err != nil {
		return c, err
	}
	k.checkRecovered(len(held), tornDown, unknown, len(held)-tornDown-unknown, ghosts)
	return c, nil
}
