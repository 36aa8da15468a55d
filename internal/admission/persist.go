package admission

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// This file is the controller's durability surface. The wal package
// stays stdlib-only and dependency-free by speaking builtin types:
// MarshalRegistry matches wal's WriteSnapshot capture callback, and
// RestoreSnapshot/ReplayAdmit/ReplayTeardown satisfy wal.Handler
// structurally. FinishRecovery materializes the replayed state —
// freelists, bandwidth ledger, counters, cursor — and must run after
// wal.Recover and before the controller serves traffic.

// ErrRestore wraps every recovery-side failure: a snapshot payload
// that does not parse, replay records that reference unknown classes
// or routes, or a recovered population that exceeds the configured
// capacity. All of them mean durable state and configuration disagree.
var ErrRestore = errors.New("admission: restore failed")

// Registry snapshot payload layout (inside the wal snapshot envelope,
// which carries its own CRC and fingerprint):
//
//	magic "UBREG001" | u64 fingerprint | u64 cursor |
//	u64 admitted | u64 rejected | u64 tornDown | u64 noRoute |
//	u64 maxActive | u32 nclasses | u32 nservers |
//	i64 used[nclasses*nservers] |
//	64 × ( u32 nslots | nslots × (u32 gen | u8 active | u32 class |
//	                              u32 route | u64 seq) )
//
// Free slots are serialized too — their generations are what keep a
// stale FlowID failing with ErrUnknownFlow across a restart — with
// class and route zero; free-list order is not stored, FinishRecovery
// relinks the lists. The used
// array is a debug cross-check: the ledger is rebuilt authoritatively
// from the live flows, and the stored values are only compared when
// replay applied nothing on top of the snapshot.
const (
	regMagic     = "UBREG001"
	regHeaderLen = 8 + 8 + 8 + 4*8 + 8 + 4 + 4
	regSlotLen   = 4 + 1 + 4 + 4 + 8
)

// Fingerprint hashes the controller's effective configuration —
// topology capacities, classes, utilization assignments and resolved
// routes — with FNV-1a. The WAL stamps it into every segment header,
// epoch record and snapshot so recovery refuses durable state written
// under a different configuration instead of reserving the wrong
// resources.
func (c *Controller) Fingerprint() uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(uint64(c.net.NumRouters()))
	nsrv := c.net.NumServers()
	u64(uint64(nsrv))
	for s := 0; s < nsrv; s++ {
		f64(c.net.ServerCapacity(s))
	}
	u64(uint64(len(c.classes)))
	for ci, cc := range c.classes {
		str(cc.Class.Name)
		f64(cc.Class.Bucket.Burst)
		f64(cc.Class.Bucket.Rate)
		f64(cc.Class.Deadline)
		u64(uint64(int64(cc.Class.Priority)))
		f64(cc.Alpha)
		paths := c.paths[ci]
		u64(uint64(len(paths)))
		for ri, servers := range paths {
			rt := cc.Routes.Route(ri)
			u64(uint64(int64(rt.Src)))
			u64(uint64(int64(rt.Dst)))
			u64(uint64(len(servers)))
			for _, s := range servers {
				u64(uint64(int64(s)))
			}
		}
	}
	return h.Sum64()
}

// MarshalRegistry captures the full registry — live and free slots,
// counters, ledger — as a snapshot payload, returning the admission
// cursor at capture. The signature matches wal's WriteSnapshot capture
// callback, so a snapshot is `log.WriteSnapshot(ctrl.MarshalRegistry)`.
// Shards are captured one at a time; concurrent churn is reconciled on
// recovery by the seq/generation replay gates, and counters are exact
// when the capture runs quiesced (the daemon snapshots after draining).
func (c *Controller) MarshalRegistry() (seq uint64, payload []byte) {
	r := c.reg
	cursor := r.cursor.Load()
	nclasses := len(c.classes)
	nsrv := c.net.NumServers()
	buf := make([]byte, 0, regHeaderLen+nclasses*nsrv*8+flowShards*4)
	buf = append(buf, regMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, c.Fingerprint())
	buf = binary.LittleEndian.AppendUint64(buf, cursor)
	buf = binary.LittleEndian.AppendUint64(buf, cursor-r.gaps.Load())
	buf = binary.LittleEndian.AppendUint64(buf, c.rejected.Load())
	buf = binary.LittleEndian.AppendUint64(buf, c.tornDown.Load())
	buf = binary.LittleEndian.AppendUint64(buf, c.noRoute.Load())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.maxActive.Load()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nclasses))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nsrv))
	for ci := 0; ci < nclasses; ci++ {
		for s := 0; s < nsrv; s++ {
			// Lease-adjusted: unconsumed headroom-plane budget is backed
			// by the raw ledger but belongs to no admitted flow, and
			// recovery rebuilds the ledger from flows alone. At quiesce
			// the adjustment is exact, which is when the cross-check in
			// FinishRecovery compares against these values.
			used := c.led.inUse(ci*nsrv+s) - c.leasedMicro(ci, s)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(used))
		}
	}
	for i := range r.shards {
		sh := &r.shards[i]
		n := sh.length.Load()
		buf = binary.LittleEndian.AppendUint32(buf, n)
		for j := uint32(0); j < n; j++ {
			st, seq := sh.loadSlot(j)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(st>>32))
			if st&slotActiveBit == 0 {
				// The low word of a free slot is its free-list link.
				st = 0
			}
			buf = append(buf, byte(st&slotActiveBit))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(st>>slotClassShift&slotClassMask))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(st>>slotRouteShift&slotRouteMask))
			buf = binary.LittleEndian.AppendUint64(buf, seq)
		}
	}
	return cursor, buf
}

// restoreState is the recovery-window scratch: counters carried from
// the snapshot and bookkeeping of what replay actually applied.
type restoreState struct {
	cursor     uint64 // stored admission cursor (0 when no snapshot)
	maxSeq     uint64 // highest admit sequence seen during replay
	admitted   uint64
	rejected   uint64
	tornDown   uint64
	noRoute    uint64
	maxActive  int64
	storedUsed []int64 // ledger as captured, for the quiesced cross-check

	appliedAdmits    uint64 // replay records that changed state
	appliedTeardowns uint64
	sawSnapshot      bool
}

// beginRestore opens the recovery window, refusing if the controller
// has already served traffic — replay into live state would corrupt
// both.
func (c *Controller) beginRestore() (*restoreState, error) {
	if c.restoring != nil {
		return c.restoring, nil
	}
	if c.reg.cursor.Load() != 0 {
		return nil, fmt.Errorf("%w: controller already has state", ErrRestore)
	}
	c.restoring = &restoreState{}
	return c.restoring, nil
}

// RestoreSnapshot loads a MarshalRegistry payload into the registry.
// It must be the first recovery call (wal.Recover guarantees this);
// replayed log records then layer on top. Ledger, freelists and
// counters are materialized later by FinishRecovery.
func (c *Controller) RestoreSnapshot(payload []byte) error {
	if c.restoring != nil {
		return fmt.Errorf("%w: snapshot after replay began", ErrRestore)
	}
	rs, err := c.beginRestore()
	if err != nil {
		return err
	}
	rs.sawSnapshot = true
	if len(payload) < regHeaderLen {
		return fmt.Errorf("%w: payload %d bytes, header is %d", ErrRestore, len(payload), regHeaderLen)
	}
	if string(payload[:8]) != regMagic {
		return fmt.Errorf("%w: bad registry magic %q", ErrRestore, payload[:8])
	}
	if fp := binary.LittleEndian.Uint64(payload[8:]); fp != c.Fingerprint() {
		return fmt.Errorf("%w: registry fingerprint %016x, controller %016x", ErrRestore, fp, c.Fingerprint())
	}
	rs.cursor = binary.LittleEndian.Uint64(payload[16:])
	rs.admitted = binary.LittleEndian.Uint64(payload[24:])
	rs.rejected = binary.LittleEndian.Uint64(payload[32:])
	rs.tornDown = binary.LittleEndian.Uint64(payload[40:])
	rs.noRoute = binary.LittleEndian.Uint64(payload[48:])
	rs.maxActive = int64(binary.LittleEndian.Uint64(payload[56:]))
	nclasses := binary.LittleEndian.Uint32(payload[64:])
	nsrv := binary.LittleEndian.Uint32(payload[68:])
	if int(nclasses) != len(c.classes) || int(nsrv) != c.net.NumServers() {
		return fmt.Errorf("%w: snapshot is %d classes × %d servers, controller is %d × %d",
			ErrRestore, nclasses, nsrv, len(c.classes), c.net.NumServers())
	}
	off := regHeaderLen
	n := int(nclasses) * int(nsrv)
	if len(payload) < off+8*n {
		return fmt.Errorf("%w: payload truncated in ledger", ErrRestore)
	}
	rs.storedUsed = make([]int64, n)
	for i := 0; i < n; i++ {
		rs.storedUsed[i] = int64(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	for i := 0; i < flowShards; i++ {
		if len(payload) < off+4 {
			return fmt.Errorf("%w: payload truncated at shard %d", ErrRestore, i)
		}
		nslots := binary.LittleEndian.Uint32(payload[off:])
		off += 4
		if nslots > flowSlotMask+1 {
			return fmt.Errorf("%w: shard %d claims %d slots, a flow ID addresses %d per shard (bits %d..31 carry the cluster node)",
				ErrRestore, i, nslots, flowSlotMask+1, flowNodeShift)
		}
		if len(payload) < off+regSlotLen*int(nslots) {
			return fmt.Errorf("%w: payload truncated in shard %d slots", ErrRestore, i)
		}
		sh := &c.reg.shards[i]
		sh.ensureLen(nslots)
		for j := uint32(0); j < nslots; j++ {
			gen := binary.LittleEndian.Uint32(payload[off:])
			active := payload[off+4] != 0
			class := int32(binary.LittleEndian.Uint32(payload[off+5:]))
			route := int32(binary.LittleEndian.Uint32(payload[off+9:]))
			seq := binary.LittleEndian.Uint64(payload[off+13:])
			off += regSlotLen
			if gen == 0 {
				return fmt.Errorf("%w: shard %d slot %d has generation 0", ErrRestore, i, j)
			}
			if active {
				if err := c.checkClassRoute(class, route); err != nil {
					return fmt.Errorf("%w (shard %d slot %d)", err, i, j)
				}
			}
			if active {
				sh.slotAt(j).set(packSlotState(gen, class, route), seq)
			} else {
				sh.slotAt(j).set(freeState(gen, 0), seq)
			}
		}
	}
	if off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes after shard %d", ErrRestore, len(payload)-off, flowShards-1)
	}
	return nil
}

// checkClassRoute bounds-checks a durable (class, route) pair against
// the live configuration.
func (c *Controller) checkClassRoute(class, route int32) error {
	if class < 0 || int(class) >= len(c.classes) {
		return fmt.Errorf("%w: class index %d out of range", ErrRestore, class)
	}
	if route < 0 || int(route) >= len(c.paths[class]) {
		return fmt.Errorf("%w: route index %d out of range for class %d", ErrRestore, route, class)
	}
	return nil
}

// ReplayAdmit applies one admit record from the log tail. Replay is
// at-least-once on top of the snapshot, and group commit can reorder a
// slot's reuse ahead of its predecessor's teardown in the log, so the
// gate is the admission sequence: a record strictly newer than the
// slot's stored sequence wins; anything else is already subsumed.
func (c *Controller) ReplayAdmit(id, seq uint64, class, route int32) error {
	rs, err := c.beginRestore()
	if err != nil {
		return err
	}
	if err := c.checkClassRoute(class, route); err != nil {
		return fmt.Errorf("%w (admit seq %d)", err, seq)
	}
	shard, slot, gen := splitFlowID(FlowID(id))
	if gen == 0 || seq == 0 {
		return fmt.Errorf("%w: admit record id %#x seq %d malformed", ErrRestore, id, seq)
	}
	if slot > flowSlotMask {
		return fmt.Errorf("%w: admit record id %#x names slot %d, a flow ID addresses %d per shard (bits %d..31 carry the cluster node)",
			ErrRestore, id, slot, flowSlotMask+1, flowNodeShift)
	}
	if seq > rs.maxSeq {
		rs.maxSeq = seq
	}
	sh := &c.reg.shards[shard]
	sh.ensureLen(slot + 1)
	s := sh.slotAt(slot)
	if seq <= s.seq() {
		return nil // subsumed by the snapshot (or a newer occupant)
	}
	s.set(packSlotState(gen, class, route), seq)
	rs.appliedAdmits++
	return nil
}

// ReplayTeardown applies one teardown record, gated on the slot
// generation burned into the flow ID: a record for a previous occupant
// of a since-reused slot matches nothing and is skipped.
func (c *Controller) ReplayTeardown(id uint64) error {
	rs, err := c.beginRestore()
	if err != nil {
		return err
	}
	shard, slot, gen := splitFlowID(FlowID(id))
	sh := &c.reg.shards[shard]
	if slot >= sh.length.Load() {
		return nil
	}
	s := sh.slotAt(slot)
	st := s.state.Load()
	if st&slotActiveBit == 0 || uint32(st>>32) != gen {
		return nil
	}
	s.set(freeState(nextGen(gen), 0), s.seq())
	rs.appliedTeardowns++
	return nil
}

// FinishRecovery materializes the replayed registry: every live flow
// re-reserves its route on the (empty) ledger, every other slot goes
// on its shard's free list (slots replay extended past but never
// touched get their virgin generation first), and counters and the
// admission cursor are installed. A live flow that no longer fits
// means durable state and configuration disagree despite the
// fingerprint — that is corruption, not an admission decision, and
// recovery fails rather than silently dropping an acked SLA. Safe to
// call when nothing was recovered.
func (c *Controller) FinishRecovery() error {
	rs := c.restoring
	if rs == nil {
		return nil
	}
	c.restoring = nil
	var live uint64
	for i := range c.reg.shards {
		sh := &c.reg.shards[i]
		// Downward, so the list hands out the lowest slots first and the
		// live set stays dense at the front of the shard.
		var link uint32
		for j := sh.length.Load(); j > 0; j-- {
			s := sh.slotAt(j - 1)
			st := s.state.Load()
			if st&slotActiveBit == 0 {
				gen := uint32(st >> 32)
				if gen == 0 {
					// Materialized by extension in ReplayAdmit but never
					// admitted into.
					gen = 1
				}
				s.set(freeState(gen, link), s.seq())
				link = j
				continue
			}
			live++
			class := int32(st >> slotClassShift & slotClassMask)
			route := int32(st >> slotRouteShift & slotRouteMask)
			if bn, ok := c.reserve(int(class), route); !ok {
				return fmt.Errorf("%w: recovered flow (class %d route %d seq %d) exceeds capacity at server %d",
					ErrRestore, class, route, s.seq(), bn)
			}
		}
		sh.free.Store(headWord(0, link))
	}
	if rs.sawSnapshot && rs.appliedAdmits == 0 && rs.appliedTeardowns == 0 {
		// Nothing layered on top of the snapshot: the rebuilt ledger must
		// equal the captured one exactly.
		for i, want := range rs.storedUsed {
			if got := c.led.inUse(i); got != want {
				return fmt.Errorf("%w: ledger cross-check failed at index %d: rebuilt %d, snapshot %d",
					ErrRestore, i, got, want)
			}
		}
	}
	cursor := rs.cursor
	if rs.maxSeq > cursor {
		cursor = rs.maxSeq
	}
	c.reg.cursor.Store(cursor)
	// The walk's live count is the one exact figure here: the counters
	// of a snapshot taken under churn are approximate, and a replayed
	// teardown whose slot a later admit had already retaken (its reuse
	// was journaled first) matched nothing and was never counted. So the
	// recovered admitted figure is kept — within [live, cursor] — and
	// tornDown is whatever makes Active equal live. Admitted is derived
	// as cursor − gaps; the gap counter absorbs the difference
	// (rejected cursor ticks, and any cursor advance from maxSeq).
	admitted := rs.admitted + rs.appliedAdmits
	if admitted < live {
		admitted = live
	}
	if admitted > cursor {
		admitted = cursor
	}
	c.reg.gaps.Store(cursor - admitted)
	c.tornDown.Store(admitted - live)
	// Replayed admits predate the fast-path counters: exclude them from
	// the derived hit figure (see FastPathStats).
	c.recoveredAdmits = admitted
	c.rejected.Store(rs.rejected)
	c.noRoute.Store(rs.noRoute)
	max := rs.maxActive
	if int64(live) > max {
		max = int64(live)
	}
	c.maxActive.Store(max)
	return nil
}
