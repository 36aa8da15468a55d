package admission

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ubac/internal/wal"
)

// The registry's footprint contract: slots allocated never exceed
// twice the peak number of concurrent flows plus shardFloor per shard,
// whatever the order flows leave in.
func slotBound(peakLive int64) int64 { return 2*peakLive + flowShards*shardFloor }

// churnOrder picks which held flows a churner releases next.
type churnOrder int

const (
	orderFIFO churnOrder = iota
	orderLIFO
	orderRandom
	orderPinned // FIFO above a run of pinnedRun flows that stay to the end
)

const pinnedRun = 200

func (o churnOrder) String() string {
	return [...]string{"fifo", "lifo", "random", "pinned"}[o]
}

// churner is one goroutine's admit/hold/release loop over batches of
// size batch, holding about hold flows.
type churner struct {
	t *testing.T
	c *Controller
	// lastGen is shared by the churners of one cell: the generation each
	// slot last carried, indexed slot*flowShards+shard.
	lastGen []atomic.Uint32
	rng     *rand.Rand
	order   churnOrder
	batch   int
	hold    int

	items   []BatchItem
	results []BatchResult
	errs    []error
	live    []FlowID
	liveSet map[FlowID]struct{}
	pinned  int      // flows at the front of live that are never released
	dead    []FlowID // a sample of released IDs, re-checked as their slots are reused
	out     []FlowID
}

func newChurner(t *testing.T, c *Controller, lastGen []atomic.Uint32, seed int64, order churnOrder, batch, hold int) *churner {
	ch := &churner{t: t, c: c, lastGen: lastGen, rng: rand.New(rand.NewSource(seed)),
		order: order, batch: batch, hold: hold, liveSet: map[FlowID]struct{}{}}
	ch.items = make([]BatchItem, batch)
	for j := range ch.items {
		ch.items[j] = BatchItem{Class: "voice", Src: j % contentionRing, Dst: (j + 1) % contentionRing}
	}
	if order == orderPinned {
		ch.pinned = pinnedRun
	}
	return ch
}

// admit admits one batch and checks every ID it is given: new among
// this churner's live flows, and of a later generation than its slot
// last carried.
func (ch *churner) admit() {
	ch.results = ch.c.AdmitBatch(ch.items, ch.results)
	for _, r := range ch.results {
		if r.Err != nil {
			ch.t.Errorf("admit: %v", r.Err)
			return
		}
		if _, dup := ch.liveSet[r.ID]; dup {
			ch.t.Errorf("ID %#x issued while still live", uint64(r.ID))
			return
		}
		shard, slot, gen := splitFlowID(r.ID)
		key := int(slot)*flowShards + int(shard)
		if key >= len(ch.lastGen) {
			ch.t.Errorf("slot %d of shard %d is past the footprint bound", slot, shard)
			return
		}
		if prev := ch.lastGen[key].Swap(gen); prev >= gen {
			ch.t.Errorf("shard %d slot %d: generation %d after %d", shard, slot, gen, prev)
			return
		}
		ch.liveSet[r.ID] = struct{}{}
		ch.live = append(ch.live, r.ID)
	}
}

// release tears down n held flows in the churner's order, then checks
// that one of them, and one released long ago, are unknown now.
func (ch *churner) release(n int) {
	free := ch.live[ch.pinned:]
	if n > len(free) {
		n = len(free)
	}
	ch.out = ch.out[:0]
	switch ch.order {
	case orderLIFO:
		ch.out = append(ch.out, free[len(free)-n:]...)
		ch.live = ch.live[:len(ch.live)-n]
	case orderRandom:
		for k := 0; k < n; k++ {
			i := ch.rng.Intn(len(free))
			ch.out = append(ch.out, free[i])
			free[i] = free[len(free)-1]
			free = free[:len(free)-1]
		}
		ch.live = ch.live[:len(ch.live)-n]
	default:
		ch.out = append(ch.out, free[:n]...)
		ch.live = append(ch.live[:ch.pinned], free[n:]...)
	}
	ch.errs = ch.c.TeardownBatch(ch.out, ch.errs)
	for i, err := range ch.errs {
		if err != nil {
			ch.t.Errorf("teardown of live %#x: %v", uint64(ch.out[i]), err)
			return
		}
		delete(ch.liveSet, ch.out[i])
	}
	if n == 0 {
		return
	}
	if err := ch.c.Teardown(ch.out[0]); err != ErrUnknownFlow {
		ch.t.Errorf("second teardown of %#x: %v, want ErrUnknownFlow", uint64(ch.out[0]), err)
	}
	if len(ch.dead) < 64 {
		ch.dead = append(ch.dead, ch.out[0])
	} else {
		i := ch.rng.Intn(len(ch.dead))
		if err := ch.c.Teardown(ch.dead[i]); err != ErrUnknownFlow {
			ch.t.Errorf("stale %#x: %v, want ErrUnknownFlow", uint64(ch.dead[i]), err)
		}
		ch.dead[i] = ch.out[0]
	}
}

// run churns until admits flows have been admitted.
func (ch *churner) run(admits int) {
	for done := 0; done < admits && !ch.t.Failed(); done += ch.batch {
		ch.admit()
		if len(ch.live) > ch.hold+ch.pinned {
			ch.release(ch.batch)
		}
	}
}

// churnMatrixCell runs one cell and checks the footprint bound and
// global ID uniqueness at its end, then drains.
func churnMatrixCell(t *testing.T, order churnOrder, batch, workers, admits int) {
	c := ringController(t, 1e12)
	hold := 4 * batch
	if hold < 256 {
		hold = 256
	}
	// Sized from the bound the cell must meet, so an ID past it is caught
	// as it is issued.
	perShard := slotBound(int64(workers*(hold+batch+pinnedRun))) + 1
	lastGen := make([]atomic.Uint32, int(perShard)*flowShards)
	churners := make([]*churner, workers)
	var wg sync.WaitGroup
	for w := range churners {
		churners[w] = newChurner(t, c, lastGen, int64(1000*batch+10*int(order)+w), order, batch, hold)
		wg.Add(1)
		go func(ch *churner) {
			defer wg.Done()
			ch.run(admits / workers)
		}(churners[w])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := c.Stats()
	t.Logf("%d slots, peak %d live, %d admitted", st.RegistrySlots, st.MaxActive, st.Admitted)
	if st.RegistrySlots > slotBound(st.MaxActive) {
		t.Errorf("%d slots for a peak of %d live flows (%d admitted), bound %d",
			st.RegistrySlots, st.MaxActive, st.Admitted, slotBound(st.MaxActive))
	}
	all := map[FlowID]struct{}{}
	for _, ch := range churners {
		for _, id := range ch.live {
			if _, dup := all[id]; dup {
				t.Errorf("ID %#x live in two churners", uint64(id))
			}
			all[id] = struct{}{}
		}
	}
	if int64(len(all)) != st.Active {
		t.Errorf("%d flows held, controller counts %d active", len(all), st.Active)
	}
	for _, ch := range churners {
		ch.pinned = 0
		ch.release(len(ch.live))
	}
	if st := c.Stats(); st.Active != 0 {
		t.Errorf("%d active after drain", st.Active)
	}
}

// TestRegistryChurnMatrix is the footprint property test: batch size ×
// release order × goroutines, each cell admitting a million flows
// (2^14 with -short) through the controller. Run under -race in CI.
func TestRegistryChurnMatrix(t *testing.T) {
	admits := 1 << 20
	if testing.Short() {
		admits = 1 << 14
	}
	for _, batch := range []int{1, 7, 64, 4096} {
		for _, order := range []churnOrder{orderFIFO, orderLIFO, orderRandom, orderPinned} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("size=%d/%s/g=%d", batch, order, workers), func(t *testing.T) {
					churnMatrixCell(t, order, batch, workers, admits)
				})
			}
		}
	}
}

// TestBatchesSpreadOverShards: consecutive batches do not collapse
// onto one shard (the seed put every 64-op batch on shard base&63, the
// same one for the life of the process).
func TestBatchesSpreadOverShards(t *testing.T) {
	c := ringController(t, 1e12)
	items := make([]BatchItem, 64)
	for j := range items {
		items[j] = BatchItem{Class: "voice", Src: j % contentionRing, Dst: (j + 1) % contentionRing}
	}
	var results []BatchResult
	var perShard [flowShards]int
	for b := 0; b < 1000; b++ {
		results = c.AdmitBatch(items, results)
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			shard, _, _ := splitFlowID(r.ID)
			perShard[shard]++
		}
	}
	touched, max := 0, 0
	for _, n := range perShard {
		if n > 0 {
			touched++
		}
		if n > max {
			max = n
		}
	}
	if touched < 32 {
		t.Errorf("1000 batches touched %d shards, want at least 32", touched)
	}
	if mean := 1000 * 64 / flowShards; max > 2*mean {
		t.Errorf("fullest shard holds %d flows, mean is %d", max, mean)
	}
}

// TestChurnAfterRecovery: a registry rebuilt from the WAL recycles as
// well as one that grew in place, and its snapshot stays small.
func TestChurnAfterRecovery(t *testing.T) {
	build := func() *Controller { return ringController(t, 1e12) }
	dir := t.TempDir()
	c := build()
	l := openJournal(t, c, dir, wal.ModeAsync)
	// Small batches, so that the 10k flows land on every shard and bring
	// each back past shardFloor.
	items := make([]BatchItem, 4)
	for j := range items {
		items[j] = BatchItem{Class: "voice", Src: j % contentionRing, Dst: (j + 1) % contentionRing}
	}
	var held []FlowID
	var results []BatchResult
	for b := 0; b < 2500; b++ {
		results = c.AdmitBatch(items, results)
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			held = append(held, r.ID)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	image := crashImage(t, dir)
	l.Close()

	rc, _ := recoverInto(t, build, image)
	recovered := rc.Stats()
	if recovered.Active != int64(len(held)) {
		t.Fatalf("recovered %d active, want %d", recovered.Active, len(held))
	}
	for _, err := range rc.TeardownBatch(held, nil) {
		if err != nil {
			t.Fatal(err)
		}
	}
	admits := 1 << 20
	if testing.Short() {
		admits = 1 << 16
	}
	lastGen := make([]atomic.Uint32, int(slotBound(int64(len(held))))*flowShards)
	ch := newChurner(t, rc, lastGen, 1, orderRandom, 64, 256)
	ch.run(admits)
	st := rc.Stats()
	if st.RegistrySlots > slotBound(st.MaxActive) {
		t.Errorf("%d slots for a peak of %d live flows after recovery, bound %d",
			st.RegistrySlots, st.MaxActive, slotBound(st.MaxActive))
	}
	if st.RegistrySlots != recovered.RegistrySlots {
		// Every shard came back past shardFloor, so all churn had to run
		// in the slots the torn-down flows left: FinishRecovery relinked
		// them.
		t.Errorf("registry went from %d to %d slots churning %d flows inside %d freed ones",
			recovered.RegistrySlots, st.RegistrySlots, ch.hold+ch.batch, len(held))
	}
	if _, snap := rc.MarshalRegistry(); len(snap) > 1<<20 {
		t.Errorf("snapshot is %d bytes after %d admits over %d recovered flows, want at most 1 MiB",
			len(snap), st.Admitted, len(held))
	}
}

// TestBatchChurnZeroAlloc pins the batch path at zero allocations in
// the churn steady state too: batches held, then released oldest first,
// so every claim recycles slots another batch freed.
func TestBatchChurnZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs uninstrumented")
	}
	c := ringController(t, 1e12)
	items := make([]BatchItem, 64)
	for j := range items {
		items[j] = BatchItem{Class: "voice", Src: j % contentionRing, Dst: (j + 1) % contentionRing}
	}
	var results []BatchResult
	var errs []error
	var held [4][]FlowID
	turn := 0
	cycle := func() {
		h := &held[turn%len(held)]
		turn++
		if len(*h) > 0 {
			errs = c.TeardownBatch(*h, errs)
		}
		results = c.AdmitBatch(items, results)
		*h = (*h)[:0]
		for _, r := range results {
			*h = append(*h, r.ID)
		}
	}
	for i := 0; i < 8*flowShards; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("%g allocs per held-batch cycle, want 0", allocs)
	}
}
