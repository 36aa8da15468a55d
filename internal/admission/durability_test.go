package admission

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routing"
	"ubac/internal/topology"
	"ubac/internal/traffic"
	"ubac/internal/wal"
)

// openJournal attaches a WAL in dir to the controller.
func openJournal(t *testing.T, c *Controller, dir string, mode wal.Mode) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Mode: mode, Fingerprint: c.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	c.SetJournal(l)
	return l
}

// crashImage copies the WAL directory byte-for-byte while the log is
// still open: the state a rebooted process would find after a hard stop
// with no clean shutdown.
func crashImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recoverInto replays the crash image into a fresh controller built by
// build, failing the test on any recovery error.
func recoverInto(t *testing.T, build func() *Controller, dir string) (*Controller, *wal.RecoveryInfo) {
	t.Helper()
	c := build()
	info, err := wal.Recover(dir, c.Fingerprint(), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	return c, info
}

// utilizations snapshots Utilization for every class on every server.
func utilizations(t *testing.T, c *Controller, net *topology.Network) map[string][]float64 {
	t.Helper()
	out := map[string][]float64{}
	for _, class := range c.Classes() {
		u := make([]float64, net.NumServers())
		for s := range u {
			v, err := c.Utilization(class, s)
			if err != nil {
				t.Fatal(err)
			}
			u[s] = v
		}
		out[class] = u
	}
	return out
}

// TestKillAndRestartRecovery is the ISSUE acceptance test: admit a mix
// of singleton and batch flows under a sync journal, tear a subset
// down, snapshot mid-run, keep going, then hard-stop with no clean
// shutdown. Recovery from the crash image must reproduce the admitted
// population, the per-class utilization on every server, and the
// stale-ID semantics exactly.
func TestKillAndRestartRecovery(t *testing.T) {
	ctrl, net := testController(t, 0.4)
	dir := t.TempDir()
	log := openJournal(t, ctrl, dir, wal.ModeSync)

	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 0}, {1, 0}, {2, 1}}
	var live, dead []FlowID
	admitOne := func(i int) {
		p := pairs[i%len(pairs)]
		id, err := ctrl.Admit("voice", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}

	// Wave 1: 10 singletons + one batch of 6.
	for i := 0; i < 10; i++ {
		admitOne(i)
	}
	items := make([]BatchItem, 6)
	for i := range items {
		p := pairs[i%len(pairs)]
		items[i] = BatchItem{Class: "voice", Src: p[0], Dst: p[1]}
	}
	for _, r := range ctrl.AdmitBatch(items, nil) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		live = append(live, r.ID)
	}
	// Tear down 5: three singletons, then a batch of two.
	for i := 0; i < 3; i++ {
		if err := ctrl.Teardown(live[i]); err != nil {
			t.Fatal(err)
		}
		dead = append(dead, live[i])
	}
	for _, err := range ctrl.TeardownBatch([]FlowID{live[3], live[4]}, nil) {
		if err != nil {
			t.Fatal(err)
		}
	}
	dead = append(dead, live[3], live[4])
	live = live[5:]

	// Snapshot the mid-run state, then keep mutating so recovery has to
	// layer the log tail on top of it.
	if err := log.WriteSnapshot(ctrl.MarshalRegistry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		admitOne(i + 1)
	}
	for i := 0; i < 2; i++ {
		id := live[len(live)-1-i]
		if err := ctrl.Teardown(id); err != nil {
			t.Fatal(err)
		}
		dead = append(dead, id)
	}
	live = live[:len(live)-2]

	wantSnap := ctrl.Snapshot()
	wantUtil := utilizations(t, ctrl, net)
	wantStats := ctrl.Stats()

	img := crashImage(t, dir)
	log.Close() // hygiene only; the image above is the crash state

	build := func() *Controller { c, _ := testController(t, 0.4); return c }
	rec, info := recoverInto(t, build, img)
	if !info.SnapshotLoaded {
		t.Fatal("recovery did not load the mid-run snapshot")
	}

	if got := rec.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Fatalf("recovered population:\n got %v\nwant %v", got, wantSnap)
	}
	if got := utilizations(t, rec, net); !reflect.DeepEqual(got, wantUtil) {
		t.Fatalf("recovered utilization:\n got %v\nwant %v", got, wantUtil)
	}
	gotStats := rec.Stats()
	if gotStats.Active != wantStats.Active || gotStats.Admitted != wantStats.Admitted ||
		gotStats.TornDown != wantStats.TornDown {
		t.Fatalf("recovered stats %+v, want %+v", gotStats, wantStats)
	}

	// Torn-down IDs must stay unknown: the slot generations burned into
	// them were bumped, so a stale handle can never hit a recycled slot.
	for _, id := range dead {
		if err := rec.Teardown(id); !errors.Is(err, ErrUnknownFlow) {
			t.Fatalf("stale id %#x: %v, want ErrUnknownFlow", id, err)
		}
	}
	// Every live ID still resolves, and draining them empties the ledger.
	for _, id := range live {
		if err := rec.Teardown(id); err != nil {
			t.Fatalf("live id %#x: %v", id, err)
		}
	}
	if act := rec.Stats().Active; act != 0 {
		t.Fatalf("%d flows left after draining recovered population", act)
	}
	for class, u := range utilizations(t, rec, net) {
		for s, v := range u {
			if v != 0 {
				t.Fatalf("class %s server %d: utilization %g after drain", class, s, v)
			}
		}
	}
}

// mciController mirrors testController on the paper's pinned MCI
// backbone.
func mciController(t testing.TB) (*Controller, *topology.Network) {
	t.Helper()
	net := topology.MCI()
	m := delay.NewModel(net)
	set, _, err := routing.SP{}.Select(m, routing.Request{Class: traffic.Voice(), Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(net, []ClassConfig{{Class: traffic.Voice(), Alpha: 0.4, Routes: set}}, AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	return c, net
}

// TestRecoveryDeterminismMCI: a seeded admit/teardown/snapshot workload
// on the pinned MCI topology, hard-stopped; two independent recoveries
// of the same crash image must produce byte-identical registry images,
// and both must match the pre-crash population and utilization.
func TestRecoveryDeterminismMCI(t *testing.T) {
	ctrl, net := mciController(t)
	dir := t.TempDir()
	log := openJournal(t, ctrl, dir, wal.ModeSync)

	set, err := ctrl.ClassRoutes("voice")
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ src, dst int }
	var pairs []pair
	for i := 0; i < set.Len(); i++ {
		rt := set.Route(i)
		pairs = append(pairs, pair{rt.Src, rt.Dst})
	}
	rng := rand.New(rand.NewSource(0x5eed))
	var live []FlowID
	for op := 0; op < 300; op++ {
		if op == 150 {
			if err := log.WriteSnapshot(ctrl.MarshalRegistry); err != nil {
				t.Fatal(err)
			}
		}
		if len(live) > 0 && rng.Intn(10) < 3 {
			i := rng.Intn(len(live))
			if err := ctrl.Teardown(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		p := pairs[rng.Intn(len(pairs))]
		id, err := ctrl.Admit("voice", p.src, p.dst)
		if err != nil {
			t.Fatal(err) // MCI at alpha 0.4 holds far more than this workload
		}
		live = append(live, id)
	}
	wantSnap := ctrl.Snapshot()
	wantUtil := utilizations(t, ctrl, net)

	img := crashImage(t, dir)
	log.Close()

	build := func() *Controller { c, _ := mciController(t); return c }
	recA, infoA := recoverInto(t, build, img)
	recB, infoB := recoverInto(t, build, img)
	if *infoA != *infoB {
		t.Fatalf("recovery info diverged: %+v vs %+v", infoA, infoB)
	}
	seqA, payA := recA.MarshalRegistry()
	seqB, payB := recB.MarshalRegistry()
	if seqA != seqB || !bytes.Equal(payA, payB) {
		t.Fatalf("independent recoveries produced different registry images (seq %d vs %d, %d vs %d bytes)",
			seqA, seqB, len(payA), len(payB))
	}
	if got := recA.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Fatalf("recovered population diverged from pre-crash state: %d vs %d flows", len(got), len(wantSnap))
	}
	if got := utilizations(t, recA, net); !reflect.DeepEqual(got, wantUtil) {
		t.Fatal("recovered utilization diverged from pre-crash state")
	}
}

// TestPrefixRecoveryMatchesReplay is the controller-level crash
// property: for EVERY byte-length prefix of the journal, recovery must
// land in exactly the state the in-memory controller had after the
// operations that prefix wholly contains. The journal is written in
// sync mode with singleton ops, so op order equals record order and
// "records replayed" indexes directly into the recorded state history.
func TestPrefixRecoveryMatchesReplay(t *testing.T) {
	ctrl, net := testController(t, 0.4)
	dir := t.TempDir()
	log := openJournal(t, ctrl, dir, wal.ModeSync)

	type state struct {
		snap []DroppedFlow
		util map[string][]float64
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 0}}
	var live []FlowID
	states := []state{{snap: ctrl.Snapshot(), util: utilizations(t, ctrl, net)}}
	rng := rand.New(rand.NewSource(7))
	const ops = 28
	for op := 0; op < ops; op++ {
		if len(live) > 2 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if err := ctrl.Teardown(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			p := pairs[op%len(pairs)]
			id, err := ctrl.Admit("voice", p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		states = append(states, state{snap: ctrl.Snapshot(), util: utilizations(t, ctrl, net)})
	}
	img := crashImage(t, dir)
	log.Close()

	// The single segment is preallocated and zero-padded; the journaled
	// data ends at the last non-zero byte.
	entries, err := os.ReadDir(img)
	if err != nil || len(entries) != 1 {
		t.Fatalf("crash image: %v, %d files", err, len(entries))
	}
	segPath := filepath.Join(img, entries[0].Name())
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	end := 0
	for i, b := range data {
		if b != 0 {
			end = i + 1
		}
	}

	for cut := 0; cut <= end+9; cut++ {
		work := t.TempDir()
		if err := os.WriteFile(filepath.Join(work, entries[0].Name()), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, _ := testController(t, 0.4)
		info, err := wal.Recover(work, c.Fingerprint(), c)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if err := c.FinishRecovery(); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		n := info.ReplayedAdmits + info.ReplayedTeardowns
		if n >= uint64(len(states)) {
			t.Fatalf("cut=%d: %d records replayed, only %d ops ran", cut, n, ops)
		}
		want := states[n]
		if got := c.Snapshot(); !reflect.DeepEqual(got, want.snap) {
			t.Fatalf("cut=%d (%d ops): population\n got %v\nwant %v", cut, n, got, want.snap)
		}
		if got := utilizations(t, c, net); !reflect.DeepEqual(got, want.util) {
			t.Fatalf("cut=%d (%d ops): utilization mismatch", cut, n)
		}
	}
}

// TestJournalClosedMapsToShuttingDown: once the journal is closed (the
// drain path), admits fail fast with ErrShuttingDown and reserve
// nothing, batch admits fail item by item, and teardowns apply in
// memory but report the lost durability.
func TestJournalClosedMapsToShuttingDown(t *testing.T) {
	ctrl, net := testController(t, 0.4)
	log := openJournal(t, ctrl, t.TempDir(), wal.ModeSync)
	id0, err := ctrl.Admit("voice", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := ctrl.Admit("voice", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := utilizations(t, ctrl, net)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := ctrl.Admit("voice", 0, 1); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("admit after close: %v, want ErrShuttingDown", err)
	}
	if got := utilizations(t, ctrl, net); !reflect.DeepEqual(got, before) {
		t.Fatal("failed admit leaked a reservation")
	}
	if act := ctrl.Stats().Active; act != 2 {
		t.Fatalf("active %d after failed admit, want 2", act)
	}
	for i, r := range ctrl.AdmitBatch([]BatchItem{
		{Class: "voice", Src: 0, Dst: 1},
		{Class: "voice", Src: 1, Dst: 2},
	}, nil) {
		if !errors.Is(r.Err, ErrShuttingDown) {
			t.Fatalf("batch item %d after close: %v, want ErrShuttingDown", i, r.Err)
		}
	}

	// Teardown: applied in memory (the flow is gone) but reported as
	// non-durable so the caller knows the log lost the record.
	if err := ctrl.Teardown(id0); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("teardown after close: %v, want ErrShuttingDown", err)
	}
	if err := ctrl.Teardown(id0); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("second teardown: %v, want ErrUnknownFlow (first one applied)", err)
	}
	for _, err := range ctrl.TeardownBatch([]FlowID{id1}, nil) {
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("batch teardown after close: %v, want ErrShuttingDown", err)
		}
	}
	if act := ctrl.Stats().Active; act != 0 {
		t.Fatalf("active %d after teardowns, want 0", act)
	}
}

// TestRecoveryRefusesReconfiguredController: durable state written
// under one configuration must not load into another — the fingerprint
// covers the route set, so a different alpha is a different world.
func TestRecoveryRefusesReconfiguredController(t *testing.T) {
	ctrl, _ := testController(t, 0.4)
	dir := t.TempDir()
	log := openJournal(t, ctrl, dir, wal.ModeSync)
	if _, err := ctrl.Admit("voice", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	other, _ := testController(t, 0.3)
	if other.Fingerprint() == ctrl.Fingerprint() {
		t.Fatal("fingerprints collide across alphas")
	}
	if _, err := wal.Recover(dir, other.Fingerprint(), other); !errors.Is(err, wal.ErrFingerprintMismatch) {
		t.Fatalf("recover under different alpha: %v, want ErrFingerprintMismatch", err)
	}
}

// TestReplayReuseJournaledAheadOfTeardown replays the record order two
// connections and group commit can produce: flow X is torn down and its
// slot retaken by Y in memory, but Y's admit reaches the log before X's
// teardown does. The teardown then matches nothing (the slot carries
// Y's generation) and is never counted, so counters summed from
// applied records said two flows were active. Active is anchored to the
// flows actually found; the ledger, rebuilt from them, was always right.
func TestReplayReuseJournaledAheadOfTeardown(t *testing.T) {
	c, net := testController(t, 0.3)
	ri := c.routeIndex(0, 0, 2)
	x := makeFlowID(7, 3, 5)
	y := makeFlowID(9, 3, 5) // same shard and slot, later generation
	if err := c.ReplayAdmit(uint64(x), 7, 0, ri); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplayAdmit(uint64(y), 9, 0, ri); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplayTeardown(uint64(x)); err != nil {
		t.Fatal(err)
	}
	if err := c.FinishRecovery(); err != nil {
		t.Fatal(err)
	}

	twin, _ := testController(t, 0.3)
	if _, err := twin.Admit("voice", 0, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := utilizations(t, c, net), utilizations(t, twin, net); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered ledger %v, want one flow's worth %v", got, want)
	}
	st := c.Stats()
	if st.Active != 1 || st.Admitted != 2 || st.TornDown != 1 {
		t.Errorf("recovered stats %+v, want Admitted 2, TornDown 1, Active 1", st)
	}
	if err := c.Teardown(x); err != ErrUnknownFlow {
		t.Errorf("teardown of the replaced flow: %v, want ErrUnknownFlow", err)
	}
	if err := c.Teardown(y); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Active != 0 {
		t.Errorf("%d active after the one recovered flow is torn down", st.Active)
	}
	for s, u := range utilizations(t, c, net)["voice"] {
		if u != 0 {
			t.Errorf("server %d still %g utilized after drain", s, u)
		}
	}
}

// TestRecoveryRefusesSlotsPastTheCap: durable state that names a slot
// the 18-bit slot field cannot address — a registry that once held
// more than 2^18 flows in a shard under the 26-bit layout, or a record
// whose ID carries a cluster node — is refused, and the message says
// that the node bits are why.
func TestRecoveryRefusesSlotsPastTheCap(t *testing.T) {
	c, _ := testController(t, 0.3)
	_, payload := c.MarshalRegistry()
	// An empty registry's payload ends in 64 zero slot counts; shard 0's
	// is the first of them.
	at := len(payload) - 4*flowShards
	binary.LittleEndian.PutUint32(payload[at:], flowSlotMask+2)
	fresh, _ := testController(t, 0.3)
	err := fresh.RestoreSnapshot(payload)
	if !errors.Is(err, ErrRestore) || !strings.Contains(err.Error(), "cluster node") {
		t.Fatalf("snapshot with %d slots in a shard: %v, want ErrRestore naming the node bits", flowSlotMask+2, err)
	}

	replay, _ := testController(t, 0.3)
	ri := replay.routeIndex(0, 0, 2)
	err = replay.ReplayAdmit(uint64(makeFlowID(7, 3, 5).WithNode(1)), 7, 0, ri)
	if !errors.Is(err, ErrRestore) || !strings.Contains(err.Error(), "cluster node") {
		t.Fatalf("admit record carrying node 1: %v, want ErrRestore naming the node bits", err)
	}
	if err := replay.ReplayAdmit(uint64(makeFlowID(7, flowSlotMask, 5)), 7, 0, ri); err != nil {
		t.Fatalf("admit record at the last addressable slot: %v", err)
	}
}
