package telemetry

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Event is one recorded admission decision, as served by the daemon's
// /v1/events endpoint (the ring keeps it as a record, and Snapshot
// expands it). Src, Dst, and Bottleneck are raw indexes; the daemon
// resolves them to names at serving time.
type Event struct {
	Seq          uint64  `json:"seq"`
	TimeUnixNano int64   `json:"time_unix_nano"`
	FlowID       uint64  `json:"flow_id,omitempty"`
	Class        string  `json:"class"`
	Tenant       string  `json:"tenant,omitempty"`
	Src          int     `json:"src"`
	Dst          int     `json:"dst"`
	RateBPS      float64 `json:"rate_bps"`
	Verdict      string  `json:"verdict"`
	Reason       string  `json:"reason,omitempty"`
	Bottleneck   int     `json:"bottleneck"`
	LatencyNS    int64   `json:"latency_ns"`
}

// record is an Event as a ring slot holds it: 80 bytes where the Event
// takes 136. Seq is the slot's stamp, Verdict and Reason are both
// derived from the one Verdict, and the indexes are int32 (router and
// link-server indexes, or -1).
type record struct {
	TimeUnixNano int64
	FlowID       uint64
	Class        string
	Tenant       string
	RateBPS      float64
	LatencyNS    int64
	Src, Dst     int32
	Bottleneck   int32
	Verdict      Verdict
}

// event expands the record held under ticket seq.
func (r *record) event(seq uint64) Event {
	return Event{
		Seq:          seq,
		TimeUnixNano: r.TimeUnixNano,
		FlowID:       r.FlowID,
		Class:        r.Class,
		Tenant:       r.Tenant,
		Src:          int(r.Src),
		Dst:          int(r.Dst),
		RateBPS:      r.RateBPS,
		Verdict:      r.Verdict.String(),
		Reason:       r.Verdict.Reason(),
		Bottleneck:   int(r.Bottleneck),
		LatencyNS:    r.LatencyNS,
	}
}

// ringChunkEvents is the chunk granularity: one chunk install covers
// this many appends.
const ringChunkEvents = 64

// ringFreeChunks bounds the ring's free list. Every install takes a
// chunk from it and puts one back — the chunk it displaced, once that
// is free, or its own when another writer installed first — so the
// list only overflows when more installs than this are in flight at
// once.
const ringFreeChunks = 16

// chunkDisplaced is added to a chunk's written count when an install
// displaces it from its slot.
const chunkDisplaced = 1 << 32

// eventChunk is a block of consecutive tickets. While it is installed
// as chunk id k, slot i holds ticket k*csize+i+1, written exactly once
// by that ticket's owner: the record is plain-written, then the slot's
// stamp is release-stored. A reader that observes stamps[i] == t
// therefore sees recs[i] fully written, and — because no slot is
// rewritten while anyone can still be looking at it (see release) — can
// never see it torn.
type eventChunk struct {
	id atomic.Uint64
	// written counts the slots written since the chunk was installed,
	// one add per writer per chunk, plus chunkDisplaced once it has been
	// displaced. Whoever brings it to chunkDisplaced+csize — the install
	// that displaces a full chunk, or the writer that completes a
	// displaced one — is the last to touch it, and releases it.
	written atomic.Uint64
	stamps  [ringChunkEvents]atomic.Uint64
	recs    [ringChunkEvents]record
}

// Ring is a bounded ring buffer of decision events. Appending is
// lock-free (one atomic ticket fetch per run, an amortized chunk
// install, one atomic stamp store per event and one count per chunk
// the run touches; the oldest events are overwritten when full) and
// Snapshot is a lock-free read — it never blocks writers and never
// sees a torn event.
type Ring struct {
	cap    uint64        // capacity in events (power of two)
	csize  uint64        // events per chunk: min(ringChunkEvents, cap), a power of two
	cshift uint          // log2(csize): ticket t has chunk index (t-1)>>cshift
	next   atomic.Uint64 // tickets issued
	// chunks maps chunk index cidx to slot cidx % len(chunks) (a power
	// of two, so a mask). It holds 2x the chunks the capacity needs, so
	// a chunk is only displaced once every ticket it holds is already
	// outside the Snapshot window — a single new append never
	// invalidates a whole block of still-current events at the window
	// edge.
	chunks []atomic.Pointer[eventChunk]
	// free holds chunks nobody can still be looking at, for the next
	// installs: a warm ring turns its chunks over instead of handing the
	// collector one per 64 events. Each entry is claimed by CAS, so two
	// writers installing at once each find one. readers counts Snapshots
	// in progress; a chunk displaced under one is not reused.
	free    [ringFreeChunks]atomic.Pointer[eventChunk]
	readers atomic.Int32
}

// MaxRingEvents caps a ring's capacity: 1<<20 events is about 84 MB of
// 80-byte records.
const MaxRingEvents = 1 << 20

// NewRing returns a ring holding at least capacity events (rounded up
// to a power of two, minimum 2). It panics on a capacity outside
// [1, MaxRingEvents].
func NewRing(capacity int) *Ring {
	if capacity < 1 || capacity > MaxRingEvents {
		panic(fmt.Sprintf("telemetry: ring capacity %d outside [1, %d]", capacity, MaxRingEvents))
	}
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	csize := uint64(ringChunkEvents)
	if csize > n {
		csize = n
	}
	return &Ring{
		cap:    n,
		csize:  csize,
		cshift: uint(bits.TrailingZeros64(csize)),
		chunks: make([]atomic.Pointer[eventChunk], 2*n/csize),
	}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return int(r.cap) }

// Total returns how many events have ever been appended (appends whose
// slot store is still in flight included).
func (r *Ring) Total() uint64 { return r.next.Load() }

// appendRun records n events under n consecutive sequence numbers
// drawn with one ticket fetch, and returns the first. fill(i, slot)
// writes event i of the run straight into its ring slot; the slot
// still holds whatever record last lived there, so fill assigns every
// field. The ring ends up exactly as after n runs of one — a chunk is
// installed, and its predecessor displaced, once per chunk the run
// crosses, not once per event — and a run longer than the ring simply
// overwrites its own head.
func (r *Ring) appendRun(n int, fill func(i int, slot *record)) uint64 {
	if n <= 0 {
		return 0
	}
	last := r.next.Add(uint64(n))
	first := last - uint64(n) + 1
	for t := first; t <= last; {
		cidx := (t - 1) >> r.cshift
		end := (cidx + 1) << r.cshift // last ticket of this chunk
		if end > last {
			end = last
		}
		ch := r.chunk(cidx)
		if ch == nil {
			t = end + 1
			continue
		}
		n := end - t + 1
		for ; t <= end; t++ {
			i := (t - 1) & (r.csize - 1)
			fill(int(t-first), &ch.recs[i])
			ch.stamps[i].Store(t)
		}
		if ch.written.Add(n) == chunkDisplaced+r.csize {
			r.release(ch)
		}
	}
	return first
}

// chunk returns the chunk holding index cidx's tickets, installing it
// if this is the first of them to arrive. It returns nil when the
// writer has been lapped: head has advanced ≥ 2*cap tickets past cidx
// while it stalled, so its tickets are far outside the Snapshot window
// and would never be returned anyway; they are dropped rather than
// written over the live chunk (and the chunk they fell in, which now
// never fills, is left to the collector).
func (r *Ring) chunk(cidx uint64) *eventChunk {
	slot := &r.chunks[cidx&uint64(len(r.chunks)-1)]
	for {
		ch := slot.Load()
		if ch != nil {
			// An id is only the slot's while the chunk is still in it: one
			// displaced and recycled between the two loads carries another
			// install's id, or one another writer is about to lose.
			id := ch.id.Load()
			switch {
			case slot.Load() != ch:
				continue
			case id == cidx:
				return ch
			case id > cidx:
				return nil
			}
		}
		fresh := r.take()
		fresh.id.Store(cidx)
		fresh.written.Store(0)
		if slot.CompareAndSwap(ch, fresh) {
			if ch != nil && ch.written.Add(chunkDisplaced) == chunkDisplaced+r.csize {
				r.release(ch)
			}
			return fresh
		}
		// Another writer installed first; fresh was never published.
		r.give(fresh)
	}
}

// take claims a chunk from the free list, or allocates one when the
// list is empty (the ring's first laps, or after a chunk had to be let
// go).
func (r *Ring) take() *eventChunk {
	for i := range r.free {
		if ch := r.free[i].Load(); ch != nil && r.free[i].CompareAndSwap(ch, nil) {
			return ch
		}
	}
	return new(eventChunk)
}

// give puts a chunk nobody can touch on the free list; the collector
// takes it only when the list is full.
func (r *Ring) give(ch *eventChunk) {
	for i := range r.free {
		if r.free[i].Load() == nil && r.free[i].CompareAndSwap(nil, ch) {
			return
		}
	}
}

// release frees a displaced chunk whose every slot has been written:
// no writer will touch it again (a stalled one that had not yet
// written was waited for, however long it took), and no install can
// find it. It goes back on the free list unless a Snapshot is in
// progress — one that loaded the chunk before it was displaced is
// still counted; one that starts now cannot find it. The stale stamps
// it keeps are harmless: tickets only grow, so none can match a later
// occupant's.
func (r *Ring) release(ch *eventChunk) {
	if r.readers.Load() == 0 {
		r.give(ch)
	}
}

// Snapshot returns up to limit of the most recent events, newest first.
// Events being overwritten or still in flight during the scan are
// skipped, never returned torn. limit <= 0 means the full ring.
func (r *Ring) Snapshot(limit int) []Event {
	n := int(r.cap)
	if limit <= 0 || limit > n {
		limit = n
	}
	r.readers.Add(1)
	defer r.readers.Add(-1)
	head := r.next.Load()
	out := make([]Event, 0, limit)
	slotMask := uint64(len(r.chunks) - 1)
	for t := head; t > 0 && len(out) < limit; t-- {
		if head-t >= r.cap {
			break // older tickets are overwritten
		}
		cidx := (t - 1) >> r.cshift
		ch := r.chunks[cidx&slotMask].Load()
		// The slot may hold an older or newer lap's chunk (this ticket's
		// install or displacement in flight); id tells. Within the right
		// chunk, the stamp tells whether the record write has landed.
		if ch == nil || ch.id.Load() != cidx {
			continue
		}
		i := (t - 1) & (r.csize - 1)
		if ch.stamps[i].Load() == t {
			out = append(out, ch.recs[i].event(t))
		}
	}
	return out
}
