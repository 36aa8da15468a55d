package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Event is one recorded admission decision, as kept in the ring and
// served by the daemon's /v1/events endpoint. Src, Dst, and Bottleneck
// are raw indexes; the daemon resolves them to names at serving time.
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

// ringChunkEvents is the chunk granularity: one chunk install covers
// this many appends.
const ringChunkEvents = 64

// eventChunk is a block of consecutive tickets. While it is installed
// as chunk id k, slot i holds ticket k*csize+i+1, written exactly once
// by that ticket's owner: the event is plain-written, then the slot's
// stamp is release-stored. A reader that observes stamps[i] == t
// therefore sees evs[i] fully written, and — because no slot is
// rewritten while anyone can still be looking at it (see retire) — can
// never see it torn.
type eventChunk struct {
	id     atomic.Uint64
	stamps [ringChunkEvents]atomic.Uint64
	evs    [ringChunkEvents]Event
}

// Ring is a bounded ring buffer of Events. Appending is lock-free (one
// atomic ticket fetch per run, an amortized chunk install, one atomic
// stamp store per event; the oldest events are overwritten when full)
// and Snapshot is a lock-free read — it never blocks writers and never
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
	// spare is a displaced chunk nobody can still be looking at, kept
	// for the next install: a ring at steady state turns its chunks over
	// instead of allocating 136 bytes per event for the collector (at
	// wire rates that was the daemon's entire allocation volume, and the
	// collections it forced set the tail latency). readers counts
	// Snapshots in progress; a chunk displaced under one is not reused.
	spare   atomic.Pointer[eventChunk]
	readers atomic.Int32
}

// NewRing returns a ring holding at least capacity events (rounded up
// to a power of two, minimum 2).
func NewRing(capacity int) *Ring {
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

// Append records ev, stamping its Seq (1-based, monotonically
// increasing), and returns that sequence number.
func (r *Ring) Append(ev Event) uint64 {
	return r.AppendRun(1, func(_ int, slot *Event) { *slot = ev })
}

// AppendRun records n events under n consecutive sequence numbers drawn
// with one ticket fetch, and returns the first. fill(i, slot) writes
// event i of the run straight into its ring slot; the slot still holds
// whatever event last lived there, so fill assigns the whole Event
// (Seq is stamped afterwards). The ring ends up exactly as after n
// single Appends — a chunk is installed, and its predecessor retired,
// once per chunk the run crosses, not once per event — and a run longer
// than the ring simply overwrites its own head.
func (r *Ring) AppendRun(n int, fill func(i int, slot *Event)) uint64 {
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
		for ; t <= end; t++ {
			i := (t - 1) & (r.csize - 1)
			slot := &ch.evs[i]
			fill(int(t-first), slot)
			slot.Seq = t
			ch.stamps[i].Store(t)
		}
	}
	return first
}

// chunk returns the chunk holding index cidx's tickets, installing it
// if this is the first of them to arrive. It returns nil when the
// writer has been lapped: head has advanced ≥ 2*cap tickets past cidx
// while it stalled, so its tickets are far outside the Snapshot window
// and would never be returned anyway; they are dropped rather than
// written over the live chunk.
func (r *Ring) chunk(cidx uint64) *eventChunk {
	slot := &r.chunks[cidx&uint64(len(r.chunks)-1)]
	ch := slot.Load()
	for ch == nil || ch.id.Load() != cidx {
		if ch != nil && ch.id.Load() > cidx {
			return nil
		}
		fresh := r.spare.Swap(nil)
		if fresh == nil {
			fresh = new(eventChunk)
		}
		fresh.id.Store(cidx)
		if slot.CompareAndSwap(ch, fresh) {
			r.retire(ch)
			return fresh
		}
		r.spare.CompareAndSwap(nil, fresh)
		ch = slot.Load()
	}
	return ch
}

// retire offers a chunk just displaced from its slot as the spare. It
// qualifies when nobody can still touch it: every one of its tickets
// has been written (a writer stalled between loading the chunk and
// stamping its slot leaves a stamp missing, and would later write into
// whatever the chunk had become), and no Snapshot is in progress (one
// that loaded the chunk before it was displaced is still counted; one
// that starts now cannot find it). The stale stamps it keeps are
// harmless: tickets only grow, so none can match a later occupant's.
func (r *Ring) retire(ch *eventChunk) {
	if ch == nil {
		return
	}
	first := ch.id.Load()*r.csize + 1
	for i := uint64(0); i < r.csize; i++ {
		if ch.stamps[i].Load() != first+i {
			return
		}
	}
	if r.readers.Load() == 0 {
		r.spare.CompareAndSwap(nil, ch)
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
		// chunk, the stamp tells whether the event write has landed.
		if ch == nil || ch.id.Load() != cidx {
			continue
		}
		i := (t - 1) & (r.csize - 1)
		if ch.stamps[i].Load() == t {
			out = append(out, ch.evs[i])
		}
	}
	return out
}
