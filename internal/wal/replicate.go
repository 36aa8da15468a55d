package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// This file is the log's replication read side: a cluster authority
// serves followers verbatim segment bytes through it. Reads are
// clamped to the durable tail (writeOut advances segOff and fsyncs
// under ioMu, so any offset a reader can observe is already synced),
// which means a follower never sees a torn frame — the shipped prefix
// of a segment always replays cleanly, because the untouched region of
// a preallocated segment reads as zeros, the end-of-data marker.

// SegmentFileName returns the file name of segment idx, so a follower
// can write fetched bytes into an identically-named local file and the
// standard Recover pass replays them.
func SegmentFileName(idx uint64) string { return segmentName(idx) }

// TailPos returns the durable tail: the current segment index and the
// offset within it up to which every byte is fsynced.
func (l *Log) TailPos() (seg uint64, off int64) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.segIdx, l.segOff
}

// FirstSegment returns the oldest segment index on disk at Open time.
// A full-history log (no snapshot truncation) starts at 0.
func (l *Log) FirstSegment() uint64 {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.firstSeg
}

// ReadSegmentAt reads durable bytes of segment seg starting at off into
// buf. It returns the bytes read and whether the segment is finished —
// eos means the reader should advance to segment seg+1 at offset 0.
// Reading at the durable tail of the current segment returns (0, false,
// nil): there is simply nothing new yet. Offsets beyond a segment's end
// or segments outside [FirstSegment, current] are ErrOutOfRange.
func (l *Log) ReadSegmentAt(seg uint64, off int64, buf []byte) (n int, eos bool, err error) {
	if off < 0 {
		return 0, false, fmt.Errorf("wal: negative segment offset %d", off)
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.f == nil {
		return 0, false, ErrClosed
	}
	if seg > l.segIdx || seg < l.firstSeg {
		return 0, false, fmt.Errorf("%w: segment %d outside available range %d..%d", ErrOutOfRange, seg, l.firstSeg, l.segIdx)
	}
	if seg == l.segIdx {
		if off > l.segOff {
			return 0, false, fmt.Errorf("%w: offset %d beyond durable tail %d of segment %d", ErrOutOfRange, off, l.segOff, seg)
		}
		if off == l.segOff {
			return 0, false, nil
		}
		want := int64(len(buf))
		if off+want > l.segOff {
			want = l.segOff - off
		}
		n, err = l.f.ReadAt(buf[:want], off)
		if err != nil {
			return 0, false, fmt.Errorf("wal: %w", err)
		}
		return n, false, nil
	}

	// A rotated segment: fully durable. Segments rotated in this boot
	// stop at their recorded end; older ones are served to file size
	// (their preallocated zero tails are valid end-of-data on replay).
	end, ok := l.rotatedEnd[seg]
	path := filepath.Join(l.opts.Dir, segmentName(seg))
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if !ok {
		st, err := f.Stat()
		if err != nil {
			return 0, false, fmt.Errorf("wal: %w", err)
		}
		end = st.Size()
	}
	if off > end {
		return 0, false, fmt.Errorf("%w: offset %d beyond end %d of segment %d", ErrOutOfRange, off, end, seg)
	}
	if off == end {
		return 0, true, nil
	}
	want := int64(len(buf))
	if off+want > end {
		want = end - off
	}
	n, err = f.ReadAt(buf[:want], off)
	if err != nil {
		return 0, false, fmt.Errorf("wal: %w", err)
	}
	return n, off+int64(n) == end, nil
}
