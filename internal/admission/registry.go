package admission

import (
	"sync"
	"sync/atomic"
)

// Flow registry sharding parameters. FlowID bit layout, low to high:
//
//	bits  0..5   shard index (64 shards)
//	bits  6..23  slot index within the shard (2^18 slots)
//	bits 24..31  cluster node that issued the ID (0 on a single node)
//	bits 32..63  slot generation (never zero for a live ID)
//
// The shard index is encoded in the ID itself, so Teardown decodes its
// slot in two instructions and never probes; the generation makes a
// stale ID — same slot, since reused by another flow — fail with
// ErrUnknownFlow instead of tearing down someone else's flow. The
// registry itself only ever issues and resolves node 0: it reads bits
// 6..31 as one slot number, no shard grows past 2^18 slots, and so an
// ID carrying another node's bits names a slot beyond any shard's end
// and resolves to nothing. A cluster member's controller stamps its node
// into the IDs it hands out and strips it again before a teardown
// reaches here (SetRefill). A flow's
// generation is the low 32 bits of its admission sequence: successive
// occupants of a slot differ in it (until the sequence has advanced by
// an exact multiple of 2^32), and publishing a flow is then a single
// store, because the slot's sequence rides in its state word.
const (
	flowShardBits = 6
	flowShards    = 1 << flowShardBits
	flowShardMask = flowShards - 1
	flowSlotBits  = 18
	flowSlotMask  = (1 << flowSlotBits) - 1
	flowNodeShift = flowShardBits + flowSlotBits
	flowNodeMask  = 0xff
)

// Node returns the cluster node that issued the ID, 0 for a single
// node's.
func (id FlowID) Node() uint32 { return uint32(id>>flowNodeShift) & flowNodeMask }

// WithNode returns the ID with its node bits set to node (of which the
// low 8 bits count).
func (id FlowID) WithNode(node uint32) FlowID {
	return id&^(flowNodeMask<<flowNodeShift) | FlowID(node&flowNodeMask)<<flowNodeShift
}

// Slot state word layout, low to high:
//
//	bit   0       active (a live flow occupies the slot)
//	bit   1       reserved
//	bits  2..8    class index (7 bits)         | free slot: bits 2..28 hold
//	bits  9..31   route index (23 bits)        | the free-list link
//	bits 32..63   generation
//
// A slot is either live or free, and a free slot is on exactly one
// list: its shard's LIFO free list, or a chain some put or teardown
// holds privately for the few instructions between detaching it and
// publishing it. The lifecycle is
//
//	free(gen G, link)  --pop: one CAS on the shard's list head-->  owned
//	owned              --one store-->  active(gen = uint32(seq), class, route)
//	active(gen)        --take: one CAS on the slot-->  free(gen, link)
//	                   --push: one CAS on the list head-->  listed
//
// so a claim reuses a freed slot whenever one exists and the registry
// grows only when none does: its footprint follows the peak number of
// concurrent flows, never the number ever admitted. LIFO order hands
// out the most recently freed slot, the one still in cache. A link is
// the next free slot's index plus one (0 ends the list); the list head
// word carries it under a 32-bit tag bumped on every push and pop, so
// a head that left and came back is never mistaken for itself.
const (
	slotActiveBit  = 1
	slotClassShift = 2
	slotClassMask  = 0x7f
	slotRouteShift = 9
	slotRouteMask  = 0x7fffff
	slotLinkShift  = 2
	slotLinkMask   = 1<<(flowSlotBits+1) - 1

	// shardFloor is how many slots a shard may grow to on its own;
	// past it, a claim its free list cannot meet looks in the other
	// shards' lists before growing. It keeps a small registry from
	// searching on every claim and bounds the total at peak live flows
	// + 64 × shardFloor.
	shardFloor = 64

	// Chunked slot storage: chunk addresses are immutable once
	// published, so readers index without locks while the shard grows
	// (an append-realloc'd []regSlot would copy the array out from
	// under in-flight CAS loops).
	chunkBits = 10
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// packSlotState builds an active slot's state word.
func packSlotState(gen uint32, class, route int32) uint64 {
	return uint64(gen)<<32 |
		uint64(uint32(route))<<slotRouteShift |
		uint64(uint32(class))<<slotClassShift |
		slotActiveBit
}

// freeState builds a free slot's state word.
func freeState(gen, link uint32) uint64 {
	return uint64(gen)<<32 | uint64(link)<<slotLinkShift
}

// linkOf reads the free-list link out of a free slot's state word.
func linkOf(st uint64) uint32 { return uint32(st>>slotLinkShift) & slotLinkMask }

// nextGen is the generation after gen. Zero is skipped: it marks a
// slot that is not published (fresh from grow, or having its base
// rewritten).
func nextGen(gen uint32) uint32 {
	if gen++; gen == 0 {
		gen = 1
	}
	return gen
}

// makeFlowID encodes an ID (the inverse of splitFlowID).
func makeFlowID(gen, slot, shard uint32) FlowID {
	return FlowID(uint64(gen)<<32 | uint64(slot)<<flowShardBits | uint64(shard))
}

// regSlot is one registry cell. The occupant's global admission
// sequence (journaled by the WAL so recovery preserves snapshot order)
// is base plus the state word's generation. For a flow admitted by
// this process base is the sequence with its low 32 bits cleared — the
// same value for 2^32 admissions on end, so a put finds it already in
// place — and for a recovered flow, whose ID was issued under another
// numbering, whatever makes the sum come out. A free slot keeps its
// last occupant's generation and base: recovery gates replayed admits
// on that sequence.
type regSlot struct {
	state atomic.Uint64
	base  atomic.Uint64
}

// set writes a slot outright: recovery's single-threaded paths.
func (s *regSlot) set(state, seq uint64) {
	s.base.Store(seq - state>>32)
	s.state.Store(state)
}

// seq is the stored sequence of a slot nobody else can be writing:
// recovery's single-threaded paths, and a put's reading of the slots
// it has claimed (concurrent readers use loadSlot).
func (s *regSlot) seq() uint64 { return s.base.Load() + s.state.Load()>>32 }

type flowChunk [chunkSize]regSlot

// flowShard is one slot array with its free list. dir is the chunk
// directory, appended to under growMu and read lock-free: a grown
// directory is published as a longer slice header, over the same
// backing array while its capacity lasts, so headers already handed
// out stay valid. length is the published slot count.
type flowShard struct {
	dir    atomic.Pointer[[]*flowChunk]
	length atomic.Uint32
	growMu sync.Mutex
	// c0 caches the first chunk: nearly every shard fits in one chunk,
	// and the two-load path (chunk pointer, slot) replaces the directory
	// walk (directory pointer, slice header, chunk pointer, slot).
	c0 atomic.Pointer[flowChunk]
	// free is the free-list head: tag<<32 | link.
	free atomic.Uint64
	// Pad to exactly 64 bytes: one cache line per shard, and the shard
	// index becomes a shift instead of a multiply.
	_ [24]byte
}

// flowRegistry replaces the seed's single mutex around a
// map[FlowID]flowRecord with 64 lock-free shards. cursor is the
// admission sequence; a put's home shard is a hash of it, so
// consecutive puts — singletons and whole batches alike — spread over
// the shards regardless of which goroutines issue them, and the steady
// state allocates nothing. gaps counts cursor ticks that never became
// an admit (see Controller.admittedCount).
type flowRegistry struct {
	shards []flowShard
	cursor atomic.Uint64
	gaps   atomic.Uint64
}

func newFlowRegistry() *flowRegistry {
	r := &flowRegistry{shards: make([]flowShard, flowShards)}
	empty := make([]*flowChunk, 0)
	for i := range r.shards {
		r.shards[i].dir.Store(&empty)
	}
	return r
}

// homeShard picks the shard a put with sequence seq starts from.
// Fibonacci hashing: any fixed stride of sequences (1 for singletons,
// the batch size for batches) walks all 64 shards evenly.
func homeShard(seq uint64) uint32 {
	return uint32(seq * 0x9E3779B97F4A7C15 >> (64 - flowShardBits))
}

func (sh *flowShard) slotAt(i uint32) *regSlot {
	if i < chunkSize {
		return &sh.c0.Load()[i]
	}
	return &(*sh.dir.Load())[i>>chunkBits][i&chunkMask]
}

// pop detaches up to len(ids) slots from the shard's free list with a
// single CAS on the head and writes their (shard, slot) into ids,
// generation zero. It returns how many it got. The walk reads links of
// slots it does not own yet; if the list moved underneath, what it
// read is garbage (checked before it is followed), the tag has moved
// too, and the CAS fails.
func (sh *flowShard) pop(shard uint32, ids []FlowID) int {
	for {
		h := sh.free.Load()
		link := uint32(h)
		if link == 0 {
			return 0
		}
		n := sh.length.Load()
		got := 0
		for {
			ids[got] = makeFlowID(0, link-1, shard)
			link = linkOf(sh.slotAt(link - 1).state.Load())
			if got++; got == len(ids) || link == 0 || link > n {
				break
			}
		}
		if link <= n && sh.free.CompareAndSwap(h, headWord(h, link)) {
			return got
		}
	}
}

// push splices a chain of free slots onto the shard's list with a
// single CAS on the head. first is the link of the chain's head, tail
// its last slot, whose link is pointed at the list's current head
// before each attempt.
func (sh *flowShard) push(first uint32, tail *regSlot) {
	gen := uint32(tail.state.Load() >> 32)
	for {
		h := sh.free.Load()
		tail.state.Store(freeState(gen, uint32(h)))
		if sh.free.CompareAndSwap(h, headWord(h, first)) {
			return
		}
	}
}

// headWord is the list head after a push or pop that found it at h and
// leaves link on top.
func headWord(h uint64, link uint32) uint64 { return (h>>32+1)<<32 | uint64(link) }

// grow appends k slots to the shard and returns the index of the
// first. They belong to the caller: generation 0, on no list.
func (sh *flowShard) grow(k uint32) (base uint32, ok bool) {
	sh.growMu.Lock()
	defer sh.growMu.Unlock()
	base = sh.length.Load()
	if uint64(base)+uint64(k) > flowSlotMask+1 {
		return 0, false
	}
	sh.extend(base + k)
	return base, true
}

// ensureLen grows the shard to at least n slots without claiming any —
// the recovery path, materializing slots that replay will fill. Fresh
// slots carry state 0 until replay or FinishRecovery stamps them.
func (sh *flowShard) ensureLen(n uint32) bool {
	if n > flowSlotMask+1 {
		return false
	}
	sh.growMu.Lock()
	defer sh.growMu.Unlock()
	if sh.length.Load() < n {
		sh.extend(n)
	}
	return true
}

// extend publishes a slot count of n, adding chunks as needed; growMu
// is held. append doubles the directory's capacity when it runs out,
// so a shard of c chunks has copied O(c) pointers in total.
func (sh *flowShard) extend(n uint32) {
	if need := (int(n) + chunkMask) >> chunkBits; need > len(*sh.dir.Load()) {
		dir := *sh.dir.Load() // declared here: it escapes, one header per chunk added
		for len(dir) < need {
			dir = append(dir, new(flowChunk))
		}
		sh.dir.Store(&dir)
		sh.c0.Store(dir[0])
	}
	sh.length.Store(n)
}

// claim is the one way a slot is obtained: it fills ids with the
// (shard, slot) of len(ids) slots the caller now owns, generation zero.
// Free slots come first — home's list, then, once home has reached
// shardFloor, every other shard's — and home grows only by what no
// list could supply; a home already at 2^18 slots passes the growth to
// the next shard that has the room. ok is false when no shard has
// (2^24 slots in all) and nothing is free anywhere; the slots gathered
// go back.
func (r *flowRegistry) claim(home uint32, ids []FlowID) bool {
	n := r.shards[home].pop(home, ids)
	return n == len(ids) || r.claimRest(home, ids, n)
}

// claimRest is claim past the n slots home's list supplied: the part
// the steady state never reaches. What home may still grow on its own
// (up to shardFloor) it will; the rest is looked for in the other
// shards' lists first.
func (r *flowRegistry) claimRest(home uint32, ids []FlowID, n int) bool {
	sh := &r.shards[home]
	own := 0
	if length := sh.length.Load(); length < shardFloor {
		own = int(shardFloor - length)
	}
	for k := uint32(1); k < flowShards && n+own < len(ids); k++ {
		o := (home + k) & flowShardMask
		n += r.shards[o].pop(o, ids[n:len(ids)-own])
	}
	if n == len(ids) {
		return true
	}
	for k := uint32(0); k < flowShards; k++ {
		o := (home + k) & flowShardMask
		if base, ok := r.shards[o].grow(uint32(len(ids) - n)); ok {
			for i := range ids[n:] {
				ids[n+i] = makeFlowID(0, base+uint32(i), o)
			}
			return true
		}
	}
	for _, id := range ids[:n] {
		shard, slot, _ := splitFlowID(id)
		r.shards[shard].push(slot+1, r.shards[shard].slotAt(slot))
	}
	return false
}

// seqs reserves n consecutive admission sequences, none with a zero
// low word (generation 0 is not a flow's). A block that would contain
// one — once per 2^32 admissions — is abandoned to the gap counter.
func (r *flowRegistry) seqs(n uint64) (base uint64) {
	for {
		base = r.cursor.Add(n) - n + 1
		if low := uint64(uint32(base)); low != 0 && low+n-1 <= 1<<32-1 {
			return base
		}
		r.gaps.Add(n)
	}
}

// outrun reports whether some slot claimed for the sequence block at
// base last held a flow admitted after its place in the block: the
// put drew its sequences, stalled, and popped a slot that a later
// admission had used and freed meanwhile. A slot's occupants must
// carry ascending sequences (recovery's replay gate orders them by
// it), so the put abandons the block for one drawn now, which nothing
// it owns can have outrun.
func (r *flowRegistry) outrun(ids []FlowID, base uint64) bool {
	for i, at := range ids {
		if r.slotOf(at).seq() >= base+uint64(i) {
			return true
		}
	}
	return false
}

// slotOf resolves the slot an ID or a claimed (shard, slot) names.
func (r *flowRegistry) slotOf(id FlowID) *regSlot {
	shard, slot, _ := splitFlowID(id)
	return r.shards[shard].slotAt(slot)
}

// activate publishes a claimed slot as the flow admitted at seq and
// returns its ID. In the steady state that is the one store of the
// state word. When the slot's base has to change first, the slot goes
// through generation 0 so that loadSlot never pairs a generation with
// a base written for another.
func activate(s *regSlot, at FlowID, class, route int32, seq uint64) FlowID {
	gen := uint32(seq)
	if base := seq - uint64(gen); s.base.Load() != base {
		s.state.Store(0)
		s.base.Store(base)
	}
	s.state.Store(packSlotState(gen, class, route))
	return at | FlowID(gen)<<32
}

// put registers one live flow and returns its ID and admission
// sequence. ok is false only on slot exhaustion (see claim).
func (r *flowRegistry) put(class, route int32) (FlowID, uint64, bool) {
	seq := r.seqs(1)
	var at [1]FlowID
	if !r.claim(homeShard(seq), at[:]) {
		return 0, seq, false
	}
	s := r.slotOf(at[0])
	for s.seq() >= seq {
		r.gaps.Add(1)
		seq = r.seqs(1)
	}
	return activate(s, at[0], class, route, seq), seq, true
}

// putBatch registers len(ids) flows — the batch amortization the
// :batch endpoint and the wire transport ride on: a batch whose home
// shard has the slots free takes them all with one CAS. classes,
// routeIdx and ids are parallel; the flows take the contiguous
// sequence block base..base+n-1. On slot exhaustion nothing is
// registered, no IDs are issued and ok is false.
func (r *flowRegistry) putBatch(classes, routeIdx []int32, ids []FlowID) (base uint64, ok bool) {
	if len(ids) == 0 {
		return 0, true
	}
	base = r.seqs(uint64(len(ids)))
	if !r.claim(homeShard(base), ids) {
		return base, false
	}
	for r.outrun(ids, base) {
		r.gaps.Add(uint64(len(ids)))
		base = r.seqs(uint64(len(ids)))
	}
	for i, at := range ids {
		ids[i] = activate(r.slotOf(at), at, classes[i], routeIdx[i], base+uint64(i))
	}
	return base, true
}

// splitFlowID decodes an ID into its shard, slot and generation
// fields (the inverse of makeFlowID). The slot is read together with
// the node bits above it, so that a foreign node's ID is out of range
// in every shard.
func splitFlowID(id FlowID) (shard, slot, gen uint32) {
	return uint32(id) & flowShardMask,
		uint32(id) >> flowShardBits,
		uint32(id >> 32)
}

// freeChain gathers the slots a teardown frees so that a run of them
// in one shard goes back to its free list with a single CAS: each slot
// freed links to the one before it, and flush splices the chain.
type freeChain struct {
	sh    *flowShard
	first uint32   // link of the most recently freed slot, the chain's head
	tail  *regSlot // the first slot freed, the chain's end
	head  uint64   // list head word tail's link was written against
}

// flush returns the gathered slots to their shard's free list. The
// first attempt bets that the list has not moved since the chain's
// first slot was freed — always, for a chain of one — and costs the
// one CAS; push repairs the tail's link otherwise.
func (ch *freeChain) flush() {
	if ch.tail == nil {
		return
	}
	if !ch.sh.free.CompareAndSwap(ch.head, headWord(ch.head, ch.first)) {
		ch.sh.push(ch.first, ch.tail)
	}
	ch.tail = nil
}

// takeInto resolves and frees a live flow with a single CAS on its
// slot, leaving the slot on ch; the caller flushes ch when it is done
// (a slot in another shard than the chain's flushes it first). ok is
// false for IDs that were never issued, already torn down, or whose
// slot has since been reused (generation mismatch). A lost CAS means a
// concurrent teardown of the same ID won the race — equally "not
// live": a slot's occupants carry ascending sequences, so a matching
// state can never reappear once it changes.
func (r *flowRegistry) takeInto(id FlowID, ch *freeChain) (class, route int32, ok bool) {
	shard, slot, gen := splitFlowID(id)
	sh := &r.shards[shard]
	if slot >= sh.length.Load() {
		return 0, 0, false
	}
	s := sh.slotAt(slot)
	st := s.state.Load()
	if uint32(st>>32) != gen || st&slotActiveBit == 0 {
		return 0, 0, false
	}
	if ch.sh != sh {
		ch.flush()
		ch.sh = sh
	}
	link := ch.first
	if ch.tail == nil {
		ch.head = sh.free.Load()
		link = uint32(ch.head)
	}
	if !s.state.CompareAndSwap(st, freeState(gen, link)) {
		return 0, 0, false
	}
	if ch.tail == nil {
		ch.tail = s
	}
	ch.first = slot + 1
	return int32(st >> slotClassShift & slotClassMask),
		int32(st >> slotRouteShift & slotRouteMask), true
}

// take is takeInto for a single flow.
func (r *flowRegistry) take(id FlowID) (class, route int32, ok bool) {
	var ch freeChain
	class, route, ok = r.takeInto(id, &ch)
	ch.flush()
	return class, route, ok
}

// slots is the registry's footprint: the summed shard lengths.
func (r *flowRegistry) slots() int {
	n := 0
	for i := range r.shards {
		n += int(r.shards[i].length.Load())
	}
	return n
}

// loadSlot returns a consistent (state, seq) pair for slot i. Outside
// recovery a base is only ever written while its slot shows generation
// 0 (see activate; grow hands slots out that way too), so a state that
// is published and unchanged across the read of base pairs with it.
// The windows retried are a few stores wide, so the loop is short.
func (sh *flowShard) loadSlot(i uint32) (st, seq uint64) {
	s := sh.slotAt(i)
	for {
		st = s.state.Load()
		base := s.base.Load()
		if st>>32 != 0 && s.state.Load() == st {
			return st, base + st>>32
		}
	}
}

// flowSnap is one live flow as captured by snapshot.
type flowSnap struct {
	seq          uint64
	class, route int32
}

// snapshot collects every live flow. Each slot is read consistently
// but the walk is not a point-in-time cut — concurrent churn can be
// seen partially, so callers that need an exact population (Migrate)
// quiesce admissions first, as the seed's single-mutex registry also
// required in practice.
func (r *flowRegistry) snapshot() []flowSnap {
	var out []flowSnap
	for i := range r.shards {
		sh := &r.shards[i]
		n := sh.length.Load()
		for j := uint32(0); j < n; j++ {
			st, seq := sh.loadSlot(j)
			if st&slotActiveBit != 0 {
				out = append(out, flowSnap{
					seq:   seq,
					class: int32(st >> slotClassShift & slotClassMask),
					route: int32(st >> slotRouteShift & slotRouteMask),
				})
			}
		}
	}
	return out
}
