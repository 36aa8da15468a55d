package admission

import (
	"testing"

	"ubac/internal/telemetry"
)

// TestAdmitBatchMatchesSequential feeds the same request mix through
// AdmitBatch and through a loop of singleton Admits on an identical
// controller: per-item verdicts, final counters and final per-server
// utilization must agree exactly.
func TestAdmitBatchMatchesSequential(t *testing.T) {
	batchCtrl, _ := testController(t, 0.3, AtomicLedger)
	seqCtrl, net := testController(t, 0.3, AtomicLedger)

	items := []BatchItem{
		{Class: "voice", Src: 0, Dst: 2},
		{Class: "voice", Src: 2, Dst: 0},
		{Class: "nope", Src: 0, Dst: 2},  // unknown class
		{Class: "voice", Src: 0, Dst: 0}, // self pair
		{Class: "voice", Src: 1, Dst: 2},
		{Class: "voice", Src: 0, Dst: 99}, // out of range
	}
	results := batchCtrl.AdmitBatch(items, nil)
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	for i, it := range items {
		_, seqErr := seqCtrl.Admit(it.Class, it.Src, it.Dst)
		if results[i].Err != seqErr {
			t.Errorf("item %d: batch %v, sequential %v", i, results[i].Err, seqErr)
		}
		if results[i].Err == nil && results[i].ID == 0 {
			t.Errorf("item %d admitted with zero ID", i)
		}
	}
	bs, ss := batchCtrl.Stats(), seqCtrl.Stats()
	if bs != ss {
		t.Errorf("stats diverged: batch %+v, sequential %+v", bs, ss)
	}
	for s := 0; s < net.NumServers(); s++ {
		bu, _ := batchCtrl.Utilization("voice", s)
		su, _ := seqCtrl.Utilization("voice", s)
		if bu != su {
			t.Errorf("server %d: batch utilization %g, sequential %g", s, bu, su)
		}
	}
}

// TestAdmitBatchCapacity checks that a batch straddling the capacity
// cliff admits exactly the flows that fit — each reservation is its
// own atomic utilization test, batching buys no leniency.
func TestAdmitBatchCapacity(t *testing.T) {
	c, _ := testController(t, 0.3, AtomicLedger)
	headroom, err := c.Headroom("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, headroom+10)
	for i := range items {
		items[i] = BatchItem{Class: "voice", Src: 0, Dst: 2}
	}
	results := c.AdmitBatch(items, nil)
	admitted := 0
	for _, r := range results {
		switch r.Err {
		case nil:
			admitted++
		case ErrCapacity:
		default:
			t.Fatalf("unexpected error %v", r.Err)
		}
	}
	if admitted != headroom {
		t.Errorf("admitted %d, want headroom %d", admitted, headroom)
	}
	st := c.Stats()
	if st.Admitted != uint64(headroom) || st.Rejected != 10 {
		t.Errorf("stats %+v", st)
	}
}

// TestTeardownBatch admits a batch, then tears it down in one call
// mixed with bogus IDs; errors must align per index and the ledger
// must balance to zero.
func TestTeardownBatch(t *testing.T) {
	c, net := testController(t, 0.3, AtomicLedger)
	items := make([]BatchItem, 20)
	for i := range items {
		items[i] = BatchItem{Class: "voice", Src: 0, Dst: 2}
	}
	results := c.AdmitBatch(items, nil)
	ids := make([]FlowID, 0, len(results)+2)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		ids = append(ids, r.ID)
	}
	ids = append(ids, FlowID(0), ids[0]) // bogus + duplicate
	errs := c.TeardownBatch(ids, nil)
	if len(errs) != len(ids) {
		t.Fatalf("%d errs for %d ids", len(errs), len(ids))
	}
	for i := 0; i < 20; i++ {
		if errs[i] != nil {
			t.Errorf("teardown %d: %v", i, errs[i])
		}
	}
	if errs[20] != ErrUnknownFlow || errs[21] != ErrUnknownFlow {
		t.Errorf("bogus teardowns: %v, %v, want ErrUnknownFlow", errs[20], errs[21])
	}
	st := c.Stats()
	if st.Active != 0 || st.TornDown != 20 {
		t.Errorf("stats %+v", st)
	}
	for s := 0; s < net.NumServers(); s++ {
		if u, _ := c.Utilization("voice", s); u != 0 {
			t.Errorf("server %d utilization %g after batch teardown", s, u)
		}
	}
}

// TestBatchTelemetry checks batch operations land in the sink with the
// same counts singleton operations would produce.
func TestBatchTelemetry(t *testing.T) {
	c, _ := testController(t, 0.3, AtomicLedger)
	sink := telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewRing(64))
	c.SetSink(sink)
	items := []BatchItem{
		{Class: "voice", Src: 0, Dst: 2},
		{Class: "voice", Src: 2, Dst: 0},
		{Class: "voice", Src: 0, Dst: 0},
		{Class: "nope", Src: 0, Dst: 2},
	}
	results := c.AdmitBatch(items, nil)
	if got := sink.Admit.Value(); got != 2 {
		t.Errorf("sink admits = %d, want 2", got)
	}
	if got := sink.RejectNoRoute.Value(); got != 1 {
		t.Errorf("sink no-route rejects = %d, want 1", got)
	}
	if got := sink.RejectUnknownClass.Value(); got != 1 {
		t.Errorf("sink unknown-class rejects = %d, want 1", got)
	}
	ids := []FlowID{results[0].ID, results[1].ID}
	c.TeardownBatch(ids, nil)
	if got := sink.Teardown.Value(); got != 2 {
		t.Errorf("sink teardowns = %d, want 2", got)
	}
	if got := sink.ActiveFlows.Value(); got != 0 {
		t.Errorf("sink active gauge = %d, want 0", got)
	}

	// Capacity rejects must attribute a bottleneck server, same as the
	// singleton path: fill a pair, overflow it by one in a batch, and
	// the reject event must not carry -1.
	headroom, err := c.Headroom("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]BatchItem, headroom+1)
	for i := range fill {
		fill[i] = BatchItem{Class: "voice", Src: 0, Dst: 2}
	}
	results = c.AdmitBatch(fill, results[:0])
	if results[headroom].Err != ErrCapacity {
		t.Fatalf("overflow item: %v, want ErrCapacity", results[headroom].Err)
	}
	evs := sink.Ring().Snapshot(1)
	if len(evs) != 1 || evs[0].Verdict != telemetry.RejectedCapacity.String() {
		t.Fatalf("newest event: %+v, want capacity reject", evs)
	}
	if evs[0].Bottleneck < 0 {
		t.Errorf("batch capacity reject lost the bottleneck server: %+v", evs[0])
	}
}

// TestBatchSteadyStateZeroAlloc pins the untelemetered batch path at
// zero allocations once the caller reuses its result slices and the
// pool's scratch has grown to the batch size.
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs uninstrumented")
	}
	c, _ := testController(t, 0.3, AtomicLedger)
	items := make([]BatchItem, 64)
	for i := range items {
		items[i] = BatchItem{Class: "voice", Src: 0, Dst: 2}
	}
	var results []BatchResult
	var ids []FlowID
	var errs []error
	cycle := func() {
		results = c.AdmitBatch(items, results)
		ids = ids[:0]
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			ids = append(ids, r.ID)
		}
		errs = c.TeardownBatch(ids, errs)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the scratch pool, the result capacity and every shard a batch
	// can be homed on (each grows its first slots once).
	for i := 0; i < 4*flowShards; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("%g allocs per batch cycle, want 0", allocs)
	}
}
