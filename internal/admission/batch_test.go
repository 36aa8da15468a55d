package admission

import (
	"reflect"
	"testing"
	"time"

	"ubac/internal/telemetry"
	"ubac/internal/traffic"
)

// TestAdmitBatchMatchesSequential feeds the same request mix through
// AdmitBatch and through a loop of singleton Admits on an identical
// controller: per-item verdicts, final counters and final per-server
// utilization must agree exactly.
func TestAdmitBatchMatchesSequential(t *testing.T) {
	batchCtrl, _ := testController(t, 0.3)
	seqCtrl, net := testController(t, 0.3)

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
	c, _ := testController(t, 0.3)
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
	c, net := testController(t, 0.3)
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
	c, _ := testController(t, 0.3)
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

// TestBatchOwnClaimsDoNotCauseReject pins the reclaim blind spot a
// batch used to have for itself. Link 0→1 is filled, then eight flows
// of route A = (0,1) leave, so A's budget holds the link's only eight
// free slots. A batch of seven A items and one item of B = (0,2), which
// shares that link, claims all eight for A in one chunk and spends
// seven; the eighth sits in the batch's scratch where B's reclaiming
// walk cannot see it. The exact-walk twin has no plane and admits all
// eight items, and so must the fast side.
func TestBatchOwnClaimsDoNotCauseReject(t *testing.T) {
	fast, exact := newTwin(t, true), newTwin(t, false)
	for {
		idA, errA := fast.ctrl.Admit("voice", 0, 1)
		idB, errB := exact.ctrl.Admit("voice", 0, 1)
		if errA != errB || idA != idB {
			t.Fatalf("fill diverges: fast=(%v, %v) exact=(%v, %v)", idA, errA, idB, errB)
		}
		if errA != nil {
			break
		}
		fast.live = append(fast.live, idA)
		exact.live = append(exact.live, idB)
	}
	const freed = 8
	for _, tw := range []*twin{fast, exact} {
		for _, err := range tw.ctrl.TeardownBatch(tw.live[:freed], nil) {
			if err != nil {
				t.Fatal(err)
			}
		}
		tw.live = tw.live[freed:]
	}
	items := make([]BatchItem, freed)
	for i := range items {
		items[i] = BatchItem{Class: "voice", Src: 0, Dst: 1}
	}
	items[freed-1].Dst = 2
	resFast := fast.ctrl.AdmitBatch(items, nil)
	resExact := exact.ctrl.AdmitBatch(items, nil)
	for i := range items {
		if resExact[i].Err != nil {
			t.Fatalf("item %d: exact twin refused: %v", i, resExact[i].Err)
		}
		if resFast[i].Err != nil {
			t.Errorf("item %d: fast path refused what the exact test admits: %v", i, resFast[i].Err)
		}
		if resFast[i].ID != resExact[i].ID {
			t.Errorf("item %d: IDs diverge: fast=%v exact=%v", i, resFast[i].ID, resExact[i].ID)
		}
	}
	compareDecisions(t, fast, exact)
	compareUtil(t, fast.ctrl, exact.ctrl, 0)
	// The link is full again, and both sides say so.
	_, errA := fast.ctrl.Admit("voice", 0, 2)
	_, errB := exact.ctrl.Admit("voice", 0, 2)
	if errA != ErrCapacity || errB != ErrCapacity {
		t.Fatalf("link should be full: fast=%v exact=%v", errA, errB)
	}
}

// TestBatchRunOverwritesScratch guards the in-place fill of the run a
// batch hands to the sink: the scratch still holds an earlier batch's
// decisions, so a field the fill forgot would be reported with someone
// else's value. The pooled scratch is primed with decisions whose every
// field is set (by reflection, so a field added to Decision later is
// covered), and each decision reported must be exactly what the batch
// decided, under a clock that makes Latency and When exact.
func TestBatchRunOverwritesScratch(t *testing.T) {
	c, _ := testController(t, 0.3)
	sink := &captureSink{}
	c.SetSink(sink)
	tick := time.Unix(100, 0)
	c.SetClock(func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	})

	stale := telemetry.Decision{When: time.Unix(1, 1)}
	sv := reflect.ValueOf(&stale).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("stale")
		case reflect.Int, reflect.Int64:
			f.SetInt(77)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(7)
		case reflect.Float64:
			f.SetFloat(77)
		case reflect.Struct: // When, set above
		default:
			t.Fatalf("Decision.%s: unhandled kind %v", sv.Type().Field(i).Name, f.Kind())
		}
	}
	prime := func() {
		sc := scratchPool.Get().(*batchScratch)
		for i, run := 0, sc.runFor(8); i < len(run); i++ {
			run[i] = stale
		}
		scratchPool.Put(sc)
	}

	prime()
	items := []BatchItem{
		{Class: "voice", Tenant: "t1", Src: 0, Dst: 2},
		{Class: "nope", Src: 0, Dst: 2},
		{Class: "voice", Src: 1, Dst: 1},
	}
	res := c.AdmitBatch(items, nil)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	rate := traffic.Voice().Bucket.Rate
	when, lat := time.Unix(100, 0).Add(2*time.Millisecond), time.Millisecond
	want := []telemetry.Decision{
		{FlowID: uint64(res[0].ID), Class: "voice", Tenant: "t1", Src: 0, Dst: 2, Rate: rate,
			Verdict: telemetry.Admitted, Bottleneck: -1, Latency: lat, When: when},
		{Class: "nope", Src: 0, Dst: 2, Verdict: telemetry.RejectedUnknownClass, Bottleneck: -1, Latency: lat, When: when},
		{Class: "voice", Src: 1, Dst: 1, Rate: rate, Verdict: telemetry.RejectedNoRoute, Bottleneck: -1, Latency: lat, When: when},
	}
	if got := sink.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("admit batch reported\n%+v\nwant\n%+v", got, want)
	}

	prime()
	if errs := c.TeardownBatch([]FlowID{res[0].ID}, nil); errs[0] != nil {
		t.Fatal(errs[0])
	}
	want = []telemetry.Decision{{FlowID: uint64(res[0].ID), Class: "voice", Src: 0, Dst: 2, Rate: rate,
		Verdict: telemetry.TornDown, Bottleneck: -1, Latency: lat, When: when.Add(2 * time.Millisecond)}}
	if got := sink.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("teardown batch reported\n%+v\nwant\n%+v", got, want)
	}
}

// batchCycle returns one AdmitBatch+TeardownBatch round of 64 flows
// that reuses its result slices, the unit the zero-alloc gates count.
func batchCycle(t *testing.T, c *Controller) func() {
	items := make([]BatchItem, 64)
	for i := range items {
		items[i] = BatchItem{Class: "voice", Src: 0, Dst: 2}
	}
	var results []BatchResult
	var ids []FlowID
	var errs []error
	return func() {
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
}

// TestBatchSteadyStateZeroAlloc pins the untelemetered batch path at
// zero allocations once the caller reuses its result slices and the
// pool's scratch has grown to the batch size.
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs uninstrumented")
	}
	c, _ := testController(t, 0.3)
	cycle := batchCycle(t, c)
	// Warm the scratch pool, the result capacity and every shard a batch
	// can be homed on (each grows its first slots once).
	for i := 0; i < 4*flowShards; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("%g allocs per batch cycle, want 0", allocs)
	}
}

// TestBatchTelemetryZeroAlloc is the same gate with the shipped sink
// attached: the run handed to the sink is pooled scratch, and the ring
// turns its chunks over, so observing a batch allocates nothing either.
func TestBatchTelemetryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs uninstrumented")
	}
	c, _ := testController(t, 0.3)
	sink := telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewRing(4096))
	c.SetSink(sink)
	cycle := batchCycle(t, c)
	// As above, and far enough that the ring has wrapped and recycles.
	for i := 0; i < 4*flowShards; i++ {
		cycle()
	}
	before := sink.Admit.Value()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("%g allocs per telemetered batch cycle, want 0", allocs)
	}
	if got := sink.Admit.Value() - before; got != 101*64 {
		t.Errorf("sink saw %d admits over 101 cycles of 64", got)
	}
}
