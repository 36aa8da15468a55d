package admission

import (
	"sync"
	"testing"
)

// TestRegistryPutTake round-trips flows through the raw registry and
// checks that IDs decode to the records that were stored.
func TestRegistryPutTake(t *testing.T) {
	r := newFlowRegistry()
	const n = 1000
	ids := make([]FlowID, n)
	for i := 0; i < n; i++ {
		id, _, ok := r.put(int32(i%3), int32(i))
		if !ok {
			t.Fatalf("put %d failed", i)
		}
		if id == 0 {
			t.Fatalf("put %d returned zero ID", i)
		}
		ids[i] = id
	}
	seen := make(map[FlowID]bool, n)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
	for i, id := range ids {
		class, route, ok := r.take(id)
		if !ok {
			t.Fatalf("take %d failed", i)
		}
		if class != int32(i%3) || route != int32(i) {
			t.Fatalf("take %d: got (%d,%d), want (%d,%d)", i, class, route, i%3, i)
		}
	}
	for _, id := range ids {
		if _, _, ok := r.take(id); ok {
			t.Fatal("double take succeeded")
		}
	}
}

// TestRegistryUnknownIDs feeds the registry IDs it never issued:
// out-of-range slots, wrong generations, and zero.
func TestRegistryUnknownIDs(t *testing.T) {
	r := newFlowRegistry()
	id, _, _ := r.put(1, 2)
	for _, bogus := range []FlowID{
		0,
		id + flowShards,    // same shard+gen, slot past len(slots)
		id ^ (1 << 32),     // live slot, wrong generation
		FlowID(^uint64(0)), // everything out of range
		id ^ flowShardMask, // different shard, nothing there
	} {
		if _, _, ok := r.take(bogus); ok {
			t.Errorf("take(%#x) succeeded on never-issued ID", uint64(bogus))
		}
	}
	if _, _, ok := r.take(id); !ok {
		t.Fatal("live ID refused after bogus probes")
	}
}

// TestRegistryGenerationReuse drives a slot through reuse and checks
// the stale ID from the previous occupant no longer resolves.
func TestRegistryGenerationReuse(t *testing.T) {
	r := newFlowRegistry()
	stale, _, _ := r.put(0, 7)
	if _, _, ok := r.take(stale); !ok {
		t.Fatal("take of live flow failed")
	}
	// Homes are a hash of the sequence, so within a few shard-counts of
	// puts one lands on the stale flow's shard again and is handed the
	// slot it freed.
	var reused FlowID
	for i := 0; i < 8*flowShards && reused == 0; i++ {
		id, _, _ := r.put(0, 99)
		if shard, slot, _ := splitFlowID(id); shard == uint32(stale&flowShardMask) {
			if _, staleSlot, _ := splitFlowID(stale); slot != staleSlot {
				t.Fatalf("shard %d grew to slot %d with slot %d free", shard, slot, staleSlot)
			}
			reused = id
		} else {
			r.take(id)
		}
	}
	if reused == 0 {
		t.Fatal("slot was not reused")
	}
	if reused == stale {
		t.Fatal("reused slot got the same ID (generation not advanced)")
	}
	if _, _, ok := r.take(stale); ok {
		t.Fatal("stale ID resolved to the slot's new occupant")
	}
	if class, route, ok := r.take(reused); !ok || class != 0 || route != 99 {
		t.Fatalf("new occupant: (%d,%d,%v)", class, route, ok)
	}
}

// TestRegistrySequenceRollover runs puts and batches across a 2^32
// boundary of the admission sequence: no flow gets generation 0, the
// skipped sequences land in the gap counter, and snapshot still reads
// every flow's full sequence back (its slot's base was rewritten).
func TestRegistrySequenceRollover(t *testing.T) {
	r := newFlowRegistry()
	// Slots used before the boundary, so that the flows after it reuse
	// slots whose base belongs to the old epoch.
	var warm []FlowID
	for i := 0; i < 4*flowShards; i++ {
		id, _, _ := r.put(0, 1)
		warm = append(warm, id)
	}
	for _, id := range warm {
		r.take(id)
	}
	r.cursor.Store(1<<32 - 4)
	want := map[uint64]bool{}
	note := func(id FlowID, seq uint64) {
		if _, _, gen := splitFlowID(id); gen == 0 || gen != uint32(seq) {
			t.Errorf("seq %#x issued as ID %#x", seq, uint64(id))
		}
		want[seq] = true
	}
	for i := 0; i < 2; i++ {
		id, seq, ok := r.put(0, 1)
		if !ok {
			t.Fatal("put failed")
		}
		note(id, seq)
	}
	ids := make([]FlowID, 8)
	classes, routes := make([]int32, 8), make([]int32, 8)
	base, ok := r.putBatch(classes, routes, ids) // 2^32-1 .. 2^32+6 would hold a zero generation
	if !ok {
		t.Fatal("putBatch failed")
	}
	if base <= 1<<32 {
		t.Errorf("batch of 8 placed at %#x, across the boundary", base)
	}
	for i, id := range ids {
		note(id, base+uint64(i))
	}
	if got, skipped := r.gaps.Load(), base-(1<<32-1); got != skipped {
		t.Errorf("gap counter %d, want the %d sequences skipped", got, skipped)
	}
	snaps := r.snapshot()
	if len(snaps) != len(want) {
		t.Fatalf("%d live flows, want %d", len(snaps), len(want))
	}
	for _, sn := range snaps {
		if !want[sn.seq] {
			t.Errorf("snapshot reports sequence %#x, never issued", sn.seq)
		}
	}
}

// place strips an ID to its (shard, slot): the form claim hands out.
func place(id FlowID) FlowID {
	shard, slot, _ := splitFlowID(id)
	return makeFlowID(0, slot, shard)
}

// TestRegistryOutrunPut is the stalled put: it draws a sequence, then a
// later admission takes, uses and frees the slot the stalled put goes
// on to pop. The put must not publish its flow under the older
// sequence — a slot's occupants carry ascending sequences, which the
// WAL replay gate relies on — so it trades it for a fresh one.
func TestRegistryOutrunPut(t *testing.T) {
	r := newFlowRegistry()
	stalled := r.seqs(1)
	quick, quickSeq, _ := r.put(0, 1)
	r.take(quick)
	at := []FlowID{place(quick)}
	if !r.outrun(at, stalled) {
		t.Fatalf("slot last used at seq %d not seen as outrunning seq %d", quickSeq, stalled)
	}
	if r.outrun(at, quickSeq+1) {
		t.Errorf("slot last used at seq %d seen as outrunning seq %d", quickSeq, quickSeq+1)
	}
	// Through put itself: rewind the cursor below the freed slot's
	// sequence, as if every put since had been drawn before it.
	r.cursor.Store(0)
	for i := 0; i < 8*flowShards; i++ {
		id, seq, ok := r.put(0, 2)
		if !ok {
			t.Fatal("put failed")
		}
		if place(id) == place(quick) {
			if seq <= quickSeq {
				t.Fatalf("slot reused at seq %d after an occupant at seq %d", seq, quickSeq)
			}
			return
		}
	}
	t.Fatal("freed slot never reused")
}

// TestRegistryConcurrentChurn hammers the raw registry from many
// goroutines (run under -race in CI) and checks conservation: every
// put is matched by exactly one successful take, and the registry ends
// empty.
func TestRegistryConcurrentChurn(t *testing.T) {
	r := newFlowRegistry()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []FlowID
			for i := 0; i < perWorker; i++ {
				id, _, ok := r.put(int32(w), int32(i))
				if !ok {
					t.Error("put failed")
					return
				}
				held = append(held, id)
				if len(held) > 16 {
					victim := held[0]
					held = held[1:]
					if class, _, ok := r.take(victim); !ok || class != int32(w) {
						t.Errorf("take returned (%d,%v), want (%d,true)", class, ok, w)
						return
					}
				}
			}
			for _, id := range held {
				if _, _, ok := r.take(id); !ok {
					t.Error("final take failed")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if live := r.snapshot(); len(live) != 0 {
		t.Fatalf("%d flows live after full drain", len(live))
	}
}

// TestControllerStaleFlowID is the controller-level ID-reuse check: a
// torn-down ID must keep failing with ErrUnknownFlow even after its
// registry slot has been recycled by later admissions.
func TestControllerStaleFlowID(t *testing.T) {
	c, _ := testController(t, 0.3)
	stale, err := c.Admit("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Teardown(stale); err != nil {
		t.Fatal(err)
	}
	// Cycle enough admissions that some later flow reuses the slot.
	var held []FlowID
	for i := 0; i < 4*flowShards; i++ {
		id, err := c.Admit("voice", 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, id)
	}
	if err := c.Teardown(stale); err != ErrUnknownFlow {
		t.Fatalf("stale teardown: %v, want ErrUnknownFlow", err)
	}
	for _, id := range held {
		if err := c.Teardown(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Active != 0 {
		t.Fatalf("%d active after drain", st.Active)
	}
	for s := 0; s < 2; s++ {
		if u, _ := c.Utilization("voice", s); u != 0 {
			t.Fatalf("server %d utilization %g after drain", s, u)
		}
	}
}

// TestAdmitFastPathZeroAlloc pins the untelemetered admit/teardown
// fast path at zero allocations per operation, the ISSUE 4 acceptance
// gate (testing.AllocsPerRun runs the body with warmed shard
// freelists, i.e. the steady state).
func TestAdmitFastPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs uninstrumented")
	}
	c, _ := testController(t, 0.3)
	// Warm every shard's slot freelist.
	for i := 0; i < 2*flowShards; i++ {
		id, err := c.Admit("voice", 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Teardown(id); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id, err := c.Admit("voice", 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Teardown(id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%g allocs/op on the fast path, want 0", allocs)
	}
}

// TestRegistryGrowthAllocatesPerChunk: growing a shard slot by slot
// allocates when a chunk is added (the chunk and a directory header),
// not per slot, and the directory's backing array is reused while its
// capacity lasts.
func TestRegistryGrowthAllocatesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs uninstrumented")
	}
	sh := &newFlowRegistry().shards[0]
	sh.grow(1)
	if allocs := testing.AllocsPerRun(chunkSize-2, func() { sh.grow(1) }); allocs != 0 {
		t.Errorf("%g allocations per slot grown inside a chunk, want 0", allocs)
	}
	sh.ensureLen(5 * chunkSize)
	before := *sh.dir.Load()
	sh.grow(2 * chunkSize) // 7 chunks: fits the capacity append left at 5
	after := *sh.dir.Load()
	if cap(before) < 7 || &before[0] != &after[0] {
		t.Errorf("directory of cap %d was copied to add chunks 6 and 7", cap(before))
	}
	if len(before) != 5 || len(after) != 7 {
		t.Errorf("directory lengths %d then %d, want 5 then 7", len(before), len(after))
	}
}

// goldenAdmitSequence drives a fixed single-goroutine script —
// singletons, batches, a batch teardown that frees every third flow,
// more batches over the recycled slots — and returns every ID issued.
func goldenAdmitSequence(t *testing.T) []FlowID {
	t.Helper()
	c, _ := testController(t, 0.3)
	pairs := [][2]int{{0, 2}, {2, 0}, {0, 1}, {1, 2}}
	var all []FlowID
	for i := 0; i < 100; i++ {
		p := pairs[i%len(pairs)]
		id, err := c.Admit("voice", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, id)
	}
	batch := func(n int) {
		items := make([]BatchItem, n)
		for i := range items {
			p := pairs[(i*7+n)%len(pairs)]
			items[i] = BatchItem{Class: "voice", Src: p[0], Dst: p[1]}
		}
		for _, r := range c.AdmitBatch(items, nil) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			all = append(all, r.ID)
		}
	}
	batch(200)
	var third []FlowID
	for i := 0; i < len(all); i += 3 {
		third = append(third, all[i])
	}
	for _, err := range c.TeardownBatch(third, nil) {
		if err != nil {
			t.Fatal(err)
		}
	}
	batch(150)
	batch(64)
	for i := 0; i < 10; i++ {
		id, err := c.Admit("voice", 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, id)
	}
	return all
}

// What the parent commit's build (26-bit slot field, no node field)
// issued for goldenAdmitSequence.
const (
	goldenFirst       FlowID = 0x100000027
	goldenSingleton99 FlowID = 0x64000000b3
	goldenBatch0      FlowID = 0x650000009a
	goldenBatch199    FlowID = 0x12c0000325a
	goldenRecycled0   FlowID = 0x12d00000002
	goldenLast        FlowID = 0x20c00000076
	goldenHash        uint64 = 0x16e948f762321c6e
)

// TestNodeZeroIDsMatchParentLayout: a single node issues the IDs it
// issued before bits 24..31 became the node field — WAL records and
// snapshots written by the 26-bit-slot build name the same flows. The
// golden values were produced by that build running this script.
func TestNodeZeroIDsMatchParentLayout(t *testing.T) {
	all := goldenAdmitSequence(t)
	h := uint64(14695981039346656037)
	for _, id := range all {
		if id.Node() != 0 {
			t.Fatalf("single-node ID %#x carries node %d", uint64(id), id.Node())
		}
		for b := 0; b < 8; b++ {
			h = (h ^ uint64(id)>>(8*b)&0xff) * 1099511628211
		}
	}
	want := []struct {
		at int
		id FlowID
	}{
		{0, goldenFirst}, {99, goldenSingleton99}, {100, goldenBatch0}, {299, goldenBatch199},
		{300, goldenRecycled0}, {len(all) - 1, goldenLast},
	}
	if len(all) != 524 {
		t.Fatalf("script issued %d IDs, want 524", len(all))
	}
	for _, w := range want {
		if all[w.at] != w.id {
			t.Errorf("ID %d is %#x, the parent layout issued %#x", w.at, uint64(all[w.at]), uint64(w.id))
		}
	}
	if h != goldenHash {
		t.Errorf("FNV-1a over the %d IDs is %#x, the parent layout's is %#x", len(all), h, goldenHash)
	}
}

// TestFlowIDNodeBits: the node field round-trips, leaves the
// registry's own fields alone, and an ID carrying a node resolves to
// nothing in a registry (which only issues node 0).
func TestFlowIDNodeBits(t *testing.T) {
	r := newFlowRegistry()
	id, _, _ := r.put(1, 2)
	for _, node := range []uint32{1, 7, 255} {
		stamped := id.WithNode(node)
		if stamped.Node() != node || stamped.WithNode(0) != id {
			t.Fatalf("node %d does not round-trip through %#x", node, uint64(stamped))
		}
		shard, _, gen := splitFlowID(stamped)
		if s0, _, g0 := splitFlowID(id); shard != s0 || gen != g0 {
			t.Fatalf("node %d disturbed shard or generation of %#x", node, uint64(id))
		}
		if _, _, ok := r.take(stamped); ok {
			t.Fatalf("ID %#x of node %d resolved in a node-0 registry", uint64(stamped), node)
		}
	}
	if id.WithNode(256+3).Node() != 3 {
		t.Error("WithNode keeps more than 8 bits")
	}
	if _, _, ok := r.take(id); !ok {
		t.Fatal("live ID refused after foreign-node probes")
	}
}

// TestRegistrySlotCap: a shard holds 2^18 slots. A claim its full home
// shard cannot meet spills into the next shard's growth, and once no
// shard has room the controller refuses with ErrTooManyFlows and
// reserves nothing. Only one shard is filled for real (4 MiB); the
// others are marked full by their length alone — with empty free lists
// nothing reads their slots.
func TestRegistrySlotCap(t *testing.T) {
	c, _ := testController(t, 0.3)
	r := c.reg
	const home = 5
	ids := make([]FlowID, 4096)
	for filled := 0; filled < flowSlotMask+1; filled += len(ids) {
		if !r.claim(home, ids) {
			t.Fatalf("claim failed at %d slots", filled)
		}
		for _, id := range ids {
			if shard, _, _ := splitFlowID(id); shard != home {
				t.Fatalf("claim at %d slots left home for shard %d", filled, shard)
			}
		}
	}
	if got := r.shards[home].length.Load(); got != flowSlotMask+1 {
		t.Fatalf("home shard has %d slots, want %d", got, flowSlotMask+1)
	}
	if !r.claim(home, ids[:100]) {
		t.Fatal("claim past a full home shard failed although other shards are empty")
	}
	for _, id := range ids[:100] {
		if shard, slot, _ := splitFlowID(id); shard != home+1 || id.Node() != 0 {
			t.Fatalf("spilled claim landed in shard %d slot %d (node %d), want shard %d", shard, slot, id.Node(), home+1)
		}
	}
	for i := range r.shards {
		r.shards[i].length.Store(flowSlotMask + 1)
	}
	if r.claim(home, ids[:1]) {
		t.Fatal("claim succeeded with every shard at its cap")
	}
	before, _ := c.Headroom("voice", 0, 2)
	if _, err := c.Admit("voice", 0, 2); err != ErrTooManyFlows {
		t.Fatalf("Admit with a full registry: %v, want ErrTooManyFlows", err)
	}
	if res := c.AdmitBatch([]BatchItem{{Class: "voice", Src: 0, Dst: 2}}, nil); res[0].Err != ErrTooManyFlows {
		t.Fatalf("AdmitBatch with a full registry: %v, want ErrTooManyFlows", res[0].Err)
	}
	if after, _ := c.Headroom("voice", 0, 2); after != before || c.Stats().Active != 0 {
		t.Fatalf("refused admits left state behind: headroom %d then %d, %+v", before, after, c.Stats())
	}
	// A cluster member's refused admits hand their lease units back.
	m, _ := testController(t, 0.3)
	src := &countRefill{budget: 2}
	m.SetRefill(src, 1)
	for i := range m.reg.shards {
		m.reg.shards[i].length.Store(flowSlotMask + 1)
	}
	if _, err := m.Admit("voice", 0, 2); err != ErrTooManyFlows {
		t.Fatalf("leased Admit with a full registry: %v, want ErrTooManyFlows", err)
	}
	if res := m.AdmitBatch([]BatchItem{{Class: "voice", Src: 0, Dst: 2}}, nil); res[0].Err != ErrTooManyFlows {
		t.Fatalf("leased AdmitBatch with a full registry: %v, want ErrTooManyFlows", res[0].Err)
	}
	if held := src.held(m); src.taken != 1 || held != 2 || m.Stats().Active != 0 {
		t.Fatalf("leased admits refused by the registry took %d units and left %d held, want 1 and 2", src.taken, held)
	}
}
