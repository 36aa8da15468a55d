package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors.
var (
	// ErrClosed is returned by appends that race the final flush: the
	// record was NOT made durable and the in-memory admission must be
	// unwound (the daemon maps this to HTTP 503).
	ErrClosed = errors.New("wal: log closed")
	// ErrCorrupt means the log contains damage that torn-tail tolerance
	// cannot explain: a bad frame with valid data after it, a mangled
	// segment header, or a CRC-valid record that does not decode.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrFingerprintMismatch means the durable state was written by a
	// controller with a different configuration (topology, classes,
	// alphas or routes changed); replaying it would reserve the wrong
	// resources, so recovery refuses.
	ErrFingerprintMismatch = errors.New("wal: configuration fingerprint mismatch")
	// ErrOutOfRange means ReadSegmentAt was asked for a position this
	// log does not hold: a segment older than the oldest on disk at Open
	// or newer than the current one, or an offset past a segment's
	// durable end. A follower that sees it has a
	// mirror running ahead of the log it is fetching from.
	ErrOutOfRange = errors.New("wal: position outside the log")
)

// Mode selects when an append returns.
type Mode int

const (
	// ModeAsync enqueues and returns; the syncer makes the record
	// durable within FlushInterval (or sooner past FlushBytes). A crash
	// can lose the last interval's admissions — the clients were acked,
	// but re-admitting them is the operator's (or their retry's) job.
	ModeAsync Mode = iota
	// ModeSync blocks the append until its record is fsynced. Group
	// commit keeps this cheaper than one fsync per record: every append
	// that arrives while a flush is in flight shares the next fsync.
	ModeSync
)

func (m Mode) String() string {
	if m == ModeSync {
		return "sync"
	}
	return "async"
}

// Observer receives hot-path notifications; the telemetry RegistrySink
// satisfies it structurally. Implementations must be safe for
// concurrent use and cheap — WALAppend is on the admission path.
type Observer interface {
	// WALAppend reports records enqueued for durability and their
	// payload bytes.
	WALAppend(records, bytes int)
	// WALSync reports one group commit: a write+fsync batch and its
	// wall time.
	WALSync(d time.Duration)
}

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if missing). Segments and
	// snapshots of one controller live in one directory.
	Dir string
	// Mode is the append durability mode (default ModeAsync).
	Mode Mode
	// SegmentBytes is the preallocated segment size (default 4 MiB,
	// min 4 KiB).
	SegmentBytes int64
	// FlushInterval bounds how long an async append can sit in the
	// staging buffer before the syncer commits it (default 2ms).
	FlushInterval time.Duration
	// FlushBytes forces an early group commit once the staging buffer
	// exceeds it (default 256 KiB).
	FlushBytes int
	// MaxStagingBytes bounds the staging buffer (default 8x FlushBytes,
	// min FlushBytes). When the disk falls behind the admission rate,
	// async appends past the bound block until the next group commit
	// instead of growing the backlog without limit — memory stays
	// bounded and the admission rate degrades to what the disk sustains.
	MaxStagingBytes int
	// Fingerprint identifies the controller configuration; it is
	// stamped into every segment header and epoch-bump record, and
	// recovery refuses logs with a different one.
	Fingerprint uint64
	// Epoch is this boot's epoch number (recovered epoch + 1; default 1).
	Epoch uint64
	// Observer receives append/fsync notifications (nil = none).
	Observer Observer
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.SegmentBytes < 4<<10 {
		if opts.SegmentBytes == 0 {
			opts.SegmentBytes = 4 << 20
		} else {
			opts.SegmentBytes = 4 << 10
		}
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 2 * time.Millisecond
	}
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = 256 << 10
	}
	if opts.MaxStagingBytes <= 0 {
		opts.MaxStagingBytes = 8 * opts.FlushBytes
	}
	if opts.MaxStagingBytes < opts.FlushBytes {
		opts.MaxStagingBytes = opts.FlushBytes
	}
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	return opts
}

// LogStats is a point-in-time read of the log's cumulative counters.
type LogStats struct {
	Appends   uint64 // records enqueued
	Fsyncs    uint64 // group commits (one write+fsync each)
	Bytes     uint64 // framed bytes written
	Rotations uint64 // segment rotations (excluding the boot segment)
	Snapshots uint64 // snapshots written
}

// Log is a segmented append-only write-ahead log with group commit.
// All Append* methods are safe for concurrent use; a dedicated syncer
// goroutine batches staged records into one write+fsync per interval,
// byte threshold, or sync-mode kick.
//
// Log's append methods use only builtin types, so it satisfies the
// admission package's Journal interface without an adapter.
type Log struct {
	opts Options

	// mu guards the staging buffer — the only lock appenders take.
	mu       sync.Mutex
	staging  []byte
	batchSeq uint64 // batch currently accumulating in staging
	closed   bool

	// flushMu/flushCond publish flush progress to sync-mode waiters.
	flushMu    sync.Mutex
	flushCond  *sync.Cond
	flushedSeq uint64
	flushErr   error // sticky: first I/O error poisons the log
	syncerDone bool

	failed atomic.Bool // mirrors flushErr != nil for lock-free checks

	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	// ioMu serializes disk I/O between the syncer and WriteSnapshot and
	// guards the segment fields.
	ioMu     sync.Mutex
	f        *os.File
	segIdx   uint64
	segOff   int64
	firstSeg uint64 // oldest segment on disk at Open
	// rotatedEnd records where each segment rotated out in this boot,
	// so replication readers stop at real data instead of shipping the
	// preallocated zero tail. Segments from earlier boots are served to
	// their file size (their zero tails replay as clean end-of-data).
	rotatedEnd map[uint64]int64
	spare      []byte // double buffer returned by the syncer after a flush

	appends   atomic.Uint64
	fsyncs    atomic.Uint64
	bytes     atomic.Uint64
	rotations atomic.Uint64
	snapshots atomic.Uint64
}

// Open creates (or continues) the log in opts.Dir. A new segment is
// always started — recovery (Recover) must already have run if the
// directory holds prior state, because Open neither replays nor
// repairs. The boot is marked with a durable epoch-bump record before
// Open returns.
func Open(opts Options) (*Log, error) {
	o := opts.withDefaults()
	if o.Dir == "" {
		return nil, fmt.Errorf("wal: empty data directory")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	listing, err := scanDir(o.Dir)
	if err != nil {
		return nil, err
	}
	nextIdx := uint64(0)
	firstSeg := uint64(0)
	if n := len(listing.segments); n > 0 {
		nextIdx = listing.segments[n-1] + 1
		firstSeg = listing.segments[0]
	}
	f, err := createSegment(o.Dir, nextIdx, o.Fingerprint, o.SegmentBytes)
	if err != nil {
		return nil, err
	}
	if err := syncDir(o.Dir); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{
		opts:     o,
		batchSeq: 1,
		// Both halves of the double buffer are preallocated at the flush
		// threshold (plus slack for the batch that crosses it), so the
		// steady state appends into warm capacity and never pays
		// growslice copies on the admission path.
		staging:    make([]byte, 0, o.FlushBytes+64<<10),
		spare:      make([]byte, 0, o.FlushBytes+64<<10),
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		f:          f,
		segIdx:     nextIdx,
		segOff:     segHeaderLen,
		firstSeg:   firstSeg,
		rotatedEnd: make(map[uint64]int64),
	}
	l.flushCond = sync.NewCond(&l.flushMu)
	go l.run()

	// Durable boot marker: the epoch bump both timestamps this boot in
	// the record stream and lets recovery cross-check the fingerprint
	// even when no snapshot exists yet.
	var payload [epochPayloadLen]byte
	if err := l.commit(appendEpochPayload(payload[:0], o.Epoch, o.Fingerprint), 1, true); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// Mode returns the configured append mode.
func (l *Log) Mode() Mode { return l.opts.Mode }

// Epoch returns this boot's epoch number.
func (l *Log) Epoch() uint64 { return l.opts.Epoch }

// Stats returns the cumulative log counters.
func (l *Log) Stats() LogStats {
	return LogStats{
		Appends:   l.appends.Load(),
		Fsyncs:    l.fsyncs.Load(),
		Bytes:     l.bytes.Load(),
		Rotations: l.rotations.Load(),
		Snapshots: l.snapshots.Load(),
	}
}

// AppendAdmit records one admitted flow. In ModeSync it returns once
// the record is fsynced; in ModeAsync it returns after staging.
func (l *Log) AppendAdmit(id, seq uint64, class, route int32) error {
	var payload [admitPayloadLen]byte
	return l.commit(appendAdmitPayload(payload[:0], id, seq, class, route), 1, false)
}

// AppendTeardown records one released flow.
func (l *Log) AppendTeardown(id uint64) error {
	var payload [teardownPayloadLen]byte
	return l.commit(appendTeardownPayload(payload[:0], id), 1, false)
}

// AppendLease records a node's absolute lease backing for one
// (class, route). durable forces the record fsynced before returning
// regardless of mode — a grant must be on disk before it is acked,
// while a release may ride the next group commit (losing a release
// record replays a larger, conservative backing).
func (l *Log) AppendLease(node uint32, class, route int32, backing uint64, durable bool) error {
	var payload [leasePayloadLen]byte
	return l.commit(appendLeasePayload(payload[:0], node, class, route, backing), 1, durable)
}

// AppendAdmitBatch records a batch of admitted flows whose sequence
// numbers are seqBase..seqBase+len(ids)-1 (the contiguous block the
// registry hands AdmitBatch), staging every record under one lock
// acquisition and, in ModeSync, riding one group commit.
func (l *Log) AppendAdmitBatch(ids []uint64, seqBase uint64, classes, routes []int32) error {
	if len(ids) != len(classes) || len(ids) != len(routes) {
		return fmt.Errorf("wal: admit batch slice lengths differ: %d ids, %d classes, %d routes",
			len(ids), len(classes), len(routes))
	}
	if len(ids) == 0 {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// One frame holding one admit-batch record per chunk, encoded in
	// place in the staging buffer: the frame header, the CRC and the
	// record envelope (tag, seqBase, count) all amortize with the batch
	// exactly like the group commit's fsync does, and each flow costs
	// only its packed {id, class, route} unit on disk.
	for start := 0; start < len(ids); start += maxGroupRecords {
		chunkEnd := start + maxGroupRecords
		if chunkEnd > len(ids) {
			chunkEnd = len(ids)
		}
		var base int
		l.staging, base = beginFrame(l.staging)
		l.staging = append(l.staging, recAdmitBatch)
		l.staging = binary.LittleEndian.AppendUint64(l.staging, seqBase+uint64(start))
		l.staging = binary.LittleEndian.AppendUint32(l.staging, uint32(chunkEnd-start))
		for i := start; i < chunkEnd; i++ {
			l.staging = binary.LittleEndian.AppendUint64(l.staging, ids[i])
			l.staging = binary.LittleEndian.AppendUint32(l.staging, uint32(classes[i]))
			l.staging = binary.LittleEndian.AppendUint32(l.staging, uint32(routes[i]))
		}
		l.staging = endFrame(l.staging, base)
	}
	batch := l.batchSeq
	size := len(l.staging)
	l.mu.Unlock()
	l.noteAppend(len(ids), len(ids)*admitBatchUnitLen+admitBatchHeaderLen+frameHeaderLen)
	return l.afterAppend(batch, size)
}

// AppendTeardownBatch records a batch of released flows under one lock
// acquisition.
func (l *Log) AppendTeardownBatch(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	for start := 0; start < len(ids); start += maxGroupRecords {
		chunkEnd := start + maxGroupRecords
		if chunkEnd > len(ids) {
			chunkEnd = len(ids)
		}
		var base int
		l.staging, base = beginFrame(l.staging)
		l.staging = append(l.staging, recTeardownBatch)
		l.staging = binary.LittleEndian.AppendUint32(l.staging, uint32(chunkEnd-start))
		for _, id := range ids[start:chunkEnd] {
			l.staging = binary.LittleEndian.AppendUint64(l.staging, id)
		}
		l.staging = endFrame(l.staging, base)
	}
	batch := l.batchSeq
	size := len(l.staging)
	l.mu.Unlock()
	l.noteAppend(len(ids), len(ids)*teardownBatchUnitLen+teardownBatchHeaderLen+frameHeaderLen)
	return l.afterAppend(batch, size)
}

// commit stages one framed payload. forceSync waits for durability
// regardless of mode (the boot epoch marker).
func (l *Log) commit(payload []byte, records int, forceSync bool) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.staging = appendFrame(l.staging, payload)
	batch := l.batchSeq
	size := len(l.staging)
	l.mu.Unlock()
	l.noteAppend(records, len(payload)+frameHeaderLen)
	if forceSync {
		l.kickSyncer()
		return l.waitFlushed(batch)
	}
	return l.afterAppend(batch, size)
}

// noteAppend updates counters and the observer for staged records.
func (l *Log) noteAppend(records, bytes int) {
	l.appends.Add(uint64(records))
	if l.opts.Observer != nil {
		l.opts.Observer.WALAppend(records, bytes)
	}
}

// afterAppend implements the mode policy: kick the syncer when the
// record must not linger (sync mode, or byte threshold crossed), and
// wait for durability in sync mode. Async appends that find the
// staging buffer past MaxStagingBytes wait too — that is the
// backpressure that keeps a disk slower than the admission rate from
// growing the backlog without bound.
func (l *Log) afterAppend(batch uint64, stagedBytes int) error {
	if l.opts.Mode == ModeSync || stagedBytes >= l.opts.FlushBytes {
		l.kickSyncer()
	}
	if l.opts.Mode != ModeSync {
		if stagedBytes >= l.opts.MaxStagingBytes {
			return l.waitFlushed(batch)
		}
		if l.failed.Load() {
			return l.stickyErr()
		}
		return nil
	}
	return l.waitFlushed(batch)
}

func (l *Log) kickSyncer() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

func (l *Log) stickyErr() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.flushErr
}

// waitFlushed blocks until batch is durable, the log fails, or the
// syncer exits. It never hangs across Close: the final flush either
// commits the batch or syncerDone wakes the waiter with ErrClosed.
func (l *Log) waitFlushed(batch uint64) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	for l.flushedSeq < batch && l.flushErr == nil && !l.syncerDone {
		l.flushCond.Wait()
	}
	if l.flushErr != nil {
		return l.flushErr
	}
	if l.flushedSeq >= batch {
		return nil
	}
	return ErrClosed
}

// Flush forces a group commit of everything staged and waits for it.
func (l *Log) Flush() error {
	l.mu.Lock()
	target := l.batchSeq
	if len(l.staging) == 0 {
		target--
	}
	l.mu.Unlock()
	l.kickSyncer()
	return l.waitFlushed(target)
}

// Close stops accepting appends, flushes the staging buffer, fsyncs,
// and stops the syncer. Appends racing Close get ErrClosed — never a
// hung write. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if !already {
		close(l.quit)
	}
	<-l.done
	return l.stickyErr()
}

// run is the syncer goroutine: the only writer of segment files.
func (l *Log) run() {
	defer close(l.done)
	ticker := time.NewTicker(l.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.quit:
			l.flushOnce()
			l.ioMu.Lock()
			if l.f != nil {
				l.f.Close()
				l.f = nil
			}
			l.ioMu.Unlock()
			l.flushMu.Lock()
			l.syncerDone = true
			l.flushCond.Broadcast()
			l.flushMu.Unlock()
			return
		case <-l.kick:
		case <-ticker.C:
		}
		l.flushOnce()
	}
}

// flushOnce swaps the staging buffer out and commits it: one write,
// one fsync, however many records accumulated — the group commit.
func (l *Log) flushOnce() {
	l.mu.Lock()
	if len(l.staging) == 0 {
		// Nothing staged: everything before the current batch is already
		// durable; publish that so Flush waiters don't stall.
		batch := l.batchSeq - 1
		l.mu.Unlock()
		l.noteFlushed(batch, nil)
		return
	}
	buf := l.staging
	l.staging = l.spare[:0]
	l.spare = nil
	batch := l.batchSeq
	l.batchSeq++
	l.mu.Unlock()

	start := time.Now()
	err := l.writeOut(buf)
	if err == nil && l.opts.Observer != nil {
		l.opts.Observer.WALSync(time.Since(start))
	}

	l.mu.Lock()
	l.spare = buf[:0]
	l.mu.Unlock()
	l.noteFlushed(batch, err)
}

// noteFlushed publishes flush progress (or the first error) and wakes
// waiters.
func (l *Log) noteFlushed(batch uint64, err error) {
	l.flushMu.Lock()
	if err != nil {
		if l.flushErr == nil {
			l.flushErr = fmt.Errorf("wal: commit failed: %w", err)
		}
		l.failed.Store(true)
	} else if batch > l.flushedSeq {
		l.flushedSeq = batch
	}
	l.flushCond.Broadcast()
	l.flushMu.Unlock()
}

// writeOut appends buf to the current segment (rotating first when it
// would not fit) and fsyncs.
func (l *Log) writeOut(buf []byte) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if l.segOff+int64(len(buf))+frameHeaderLen > l.opts.SegmentBytes && l.segOff > segHeaderLen {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.WriteAt(buf, l.segOff); err != nil {
		return err
	}
	l.segOff += int64(len(buf))
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	l.bytes.Add(uint64(len(buf)))
	return nil
}

// rotateLocked finishes the current segment and opens the next
// preallocated one. Caller holds ioMu.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.rotatedEnd[l.segIdx] = l.segOff
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := createSegment(l.opts.Dir, l.segIdx+1, l.opts.Fingerprint, l.opts.SegmentBytes)
	if err != nil {
		return err
	}
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segIdx++
	l.segOff = segHeaderLen
	l.rotations.Add(1)
	return nil
}

// WriteSnapshot cuts the log at a rotation point, captures the
// caller's state, writes it as snapshot-<seq>.bin, and truncates
// segments that the snapshot (plus its retained predecessor) makes
// redundant.
//
// The capture callback runs after the rotation point is established,
// which is what makes truncation safe: every record in a segment at or
// below the cut was applied to in-memory state before capture ran, so
// the snapshot's payload subsumes it. Records captured by the snapshot
// AND still present in the remaining tail are re-applied on recovery —
// replay is idempotent (seq/generation-gated) by contract with the
// restore handler.
func (l *Log) WriteSnapshot(capture func() (seq uint64, payload []byte)) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		return err
	}
	firstReplaySeg := l.segIdx // everything below the fresh segment is covered
	seq, payload := capture()
	if err := writeSnapshotFile(l.opts.Dir, l.opts.Fingerprint, l.opts.Epoch, seq, firstReplaySeg, payload); err != nil {
		return err
	}
	l.snapshots.Add(1)
	return l.truncateLocked()
}

// truncateLocked removes snapshots older than the two newest, and
// segments below the older retained snapshot's replay start. Keeping
// one predecessor means a latent bad sector in the newest snapshot
// still leaves a recoverable (snapshot, tail) pair on disk. Caller
// holds ioMu.
func (l *Log) truncateLocked() error {
	listing, err := scanDir(l.opts.Dir)
	if err != nil {
		return err
	}
	if len(listing.snapshots) == 0 {
		return nil
	}
	keepFrom := len(listing.snapshots) - 2
	if keepFrom < 0 {
		keepFrom = 0
	}
	removed := false
	for _, seq := range listing.snapshots[:keepFrom] {
		if err := os.Remove(filepath.Join(l.opts.Dir, snapshotName(seq))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		removed = true
	}
	// The oldest retained snapshot defines which segments must stay.
	oldest, err := readSnapshotHeader(filepath.Join(l.opts.Dir, snapshotName(listing.snapshots[keepFrom])))
	if err != nil {
		return err
	}
	for _, idx := range listing.segments {
		if idx >= oldest.firstReplaySeg || idx == l.segIdx {
			continue
		}
		if err := os.Remove(filepath.Join(l.opts.Dir, segmentName(idx))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		removed = true
	}
	if removed {
		return syncDir(l.opts.Dir)
	}
	return nil
}
