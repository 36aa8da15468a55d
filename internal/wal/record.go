// Package wal is the durability subsystem of the admission controller:
// a segmented append-only write-ahead log with CRC32C-framed records,
// group-committed fsyncs, registry snapshots, and crash recovery.
//
// The package is dependency-free (stdlib only) and treats flow IDs,
// sequence numbers and the snapshot payload as opaque values: what a
// record *means* is the admission package's business, how it survives a
// power cut is this package's. The three record kinds mirror the three
// durable admission mutations:
//
//	admit      {id, seq, class, route} — one admitted flow
//	teardown   {id}                    — one released flow
//	epoch-bump {epoch, fingerprint}    — one controller boot
//
// plus two batch forms that amortize the per-record envelope: an
// admit-batch record carries one seqBase and count followed by packed
// {id, class, route} units (the registry hands AdmitBatch a contiguous
// sequence block, so per-flow sequence numbers are implicit), and a
// teardown-batch record carries a count followed by packed ids. At
// batch 64 that is ~16 bytes per admit instead of 25 — on a log that is
// disk-bandwidth-bound, bytes per flow is admits per second.
//
// Records are framed in groups:
//
//	u32 payload length | u32 CRC32C(payload) | payload
//
// in little-endian byte order, where the payload is one or more
// concatenated records (each self-delimiting: the tag byte plus, for
// batch forms, the count field fix its length). A singleton append
// frames one record; a batch append frames the whole batch under one
// header and one CRC, so the framing overhead amortizes with the batch
// exactly like the fsync does. A zero length
// with a zero CRC marks the end of a segment's data (segments are
// preallocated and zero-filled, so the first untouched byte pair reads
// as exactly that). A frame whose length or CRC does not check out is a
// torn tail if it is the last thing in the log, and corruption if valid
// data follows it; the frame is the atomicity unit, so a torn batch is
// dropped whole, never half-replayed.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record type tags (first payload byte).
const (
	recAdmit         = 0x01
	recTeardown      = 0x02
	recEpoch         = 0x03
	recAdmitBatch    = 0x04
	recTeardownBatch = 0x05
	recLease         = 0x06
)

// Payload sizes per record type, including the tag byte.
const (
	admitPayloadLen    = 1 + 8 + 8 + 4 + 4 // tag, id, seq, class, route
	teardownPayloadLen = 1 + 8             // tag, id
	epochPayloadLen    = 1 + 8 + 8         // tag, epoch, fingerprint
	leasePayloadLen    = 1 + 4 + 4 + 4 + 8 // tag, node, class, route, backing
)

// Batch record layout: a fixed header followed by count packed units.
const (
	admitBatchHeaderLen    = 1 + 8 + 4 // tag, seqBase, count
	admitBatchUnitLen      = 8 + 4 + 4 // id, class, route
	teardownBatchHeaderLen = 1 + 4     // tag, count
	teardownBatchUnitLen   = 8         // id
)

// frameHeaderLen is the length+CRC prefix of every frame.
const frameHeaderLen = 8

// maxPayloadLen bounds a frame payload (a record group); anything
// larger in a length field is treated as corruption rather than
// allocated. Batch appends chunk at maxGroupRecords to stay under it.
const maxPayloadLen = 1 << 20

// maxGroupRecords caps how many records one frame carries: the largest
// record type at this count stays comfortably inside maxPayloadLen.
const maxGroupRecords = maxPayloadLen / (2 * admitPayloadLen)

// castagnoli is the CRC32C polynomial table shared by all framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded WAL record. Kind selects which fields are
// meaningful: admit uses ID/Seq/Class/Route, teardown uses ID, epoch
// uses Epoch/Fingerprint, lease uses Node/Class/Route/Backing.
type Record struct {
	Kind        byte
	ID          uint64
	Seq         uint64
	Class       int32
	Route       int32
	Epoch       uint64
	Fingerprint uint64
	Node        uint32
	Backing     uint64
}

// ErrBadRecord is wrapped by every payload decode failure.
var ErrBadRecord = errors.New("wal: malformed record")

// appendAdmitPayload encodes one admit record payload.
func appendAdmitPayload(b []byte, id, seq uint64, class, route int32) []byte {
	b = append(b, recAdmit)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(class))
	b = binary.LittleEndian.AppendUint32(b, uint32(route))
	return b
}

// appendTeardownPayload encodes one teardown record payload.
func appendTeardownPayload(b []byte, id uint64) []byte {
	b = append(b, recTeardown)
	b = binary.LittleEndian.AppendUint64(b, id)
	return b
}

// appendEpochPayload encodes one epoch-bump record payload.
func appendEpochPayload(b []byte, epoch, fingerprint uint64) []byte {
	b = append(b, recEpoch)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, fingerprint)
	return b
}

// appendLeasePayload encodes one lease-backing record payload. Backing
// is absolute — the node's total granted flow-slot backing for the
// (class, route) after the mutation — so replay is last-writer-wins
// and re-delivery is harmless.
func appendLeasePayload(b []byte, node uint32, class, route int32, backing uint64) []byte {
	b = append(b, recLease)
	b = binary.LittleEndian.AppendUint32(b, node)
	b = binary.LittleEndian.AppendUint32(b, uint32(class))
	b = binary.LittleEndian.AppendUint32(b, uint32(route))
	b = binary.LittleEndian.AppendUint64(b, backing)
	return b
}

// appendFrame wraps payload in the length+CRC frame and appends it to
// b. The CRC is taken over the copy in b: payload, usually a caller's
// stack array, would otherwise escape through crc32's dispatch and cost
// an allocation per record.
func appendFrame(b, payload []byte) []byte {
	b, base := beginFrame(b)
	return endFrame(append(b, payload...), base)
}

// beginFrame reserves a frame header at the end of b so a batch can
// encode its records in place — no scratch copy. endFrame seals it.
func beginFrame(b []byte) ([]byte, int) {
	base := len(b)
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0), base
}

// endFrame fills in the length and CRC of the frame begun at base over
// everything appended since. An empty group is rolled back entirely: a
// zero-length frame on disk would read as end-of-data.
func endFrame(b []byte, base int) []byte {
	payload := b[base+frameHeaderLen:]
	if len(payload) == 0 {
		return b[:base]
	}
	binary.LittleEndian.PutUint32(b[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[base+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// DecodeRecord decodes one record payload (the bytes inside a frame,
// CRC already verified). It is total over arbitrary input: any byte
// slice either yields a Record or an error wrapping ErrBadRecord,
// never a panic (fuzz-tested by FuzzDecodeWALRecord).
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("%w: empty payload", ErrBadRecord)
	}
	switch payload[0] {
	case recAdmit:
		if len(payload) != admitPayloadLen {
			return Record{}, fmt.Errorf("%w: admit payload length %d, want %d", ErrBadRecord, len(payload), admitPayloadLen)
		}
		return Record{
			Kind:  recAdmit,
			ID:    binary.LittleEndian.Uint64(payload[1:]),
			Seq:   binary.LittleEndian.Uint64(payload[9:]),
			Class: int32(binary.LittleEndian.Uint32(payload[17:])),
			Route: int32(binary.LittleEndian.Uint32(payload[21:])),
		}, nil
	case recTeardown:
		if len(payload) != teardownPayloadLen {
			return Record{}, fmt.Errorf("%w: teardown payload length %d, want %d", ErrBadRecord, len(payload), teardownPayloadLen)
		}
		return Record{Kind: recTeardown, ID: binary.LittleEndian.Uint64(payload[1:])}, nil
	case recEpoch:
		if len(payload) != epochPayloadLen {
			return Record{}, fmt.Errorf("%w: epoch payload length %d, want %d", ErrBadRecord, len(payload), epochPayloadLen)
		}
		return Record{
			Kind:        recEpoch,
			Epoch:       binary.LittleEndian.Uint64(payload[1:]),
			Fingerprint: binary.LittleEndian.Uint64(payload[9:]),
		}, nil
	case recLease:
		if len(payload) != leasePayloadLen {
			return Record{}, fmt.Errorf("%w: lease payload length %d, want %d", ErrBadRecord, len(payload), leasePayloadLen)
		}
		return Record{
			Kind:    recLease,
			Node:    binary.LittleEndian.Uint32(payload[1:]),
			Class:   int32(binary.LittleEndian.Uint32(payload[5:])),
			Route:   int32(binary.LittleEndian.Uint32(payload[9:])),
			Backing: binary.LittleEndian.Uint64(payload[13:]),
		}, nil
	default:
		return Record{}, fmt.Errorf("%w: unknown record type 0x%02x", ErrBadRecord, payload[0])
	}
}

// recordLen returns the encoded length of the record whose tag byte is
// tag, or 0 for an unknown tag.
func recordLen(tag byte) int {
	switch tag {
	case recAdmit:
		return admitPayloadLen
	case recTeardown:
		return teardownPayloadLen
	case recEpoch:
		return epochPayloadLen
	case recLease:
		return leasePayloadLen
	default:
		return 0
	}
}

// walkGroup decodes every record in a CRC-verified group payload in
// order, expanding batch records into their per-flow units, and hands
// each logical Record to fn. It is total over arbitrary input — short,
// unknown-tag or over-count input is an error wrapping ErrBadRecord,
// never a panic. Errors from fn are returned as-is, so a caller can
// tell a malformed group (errors.Is ErrBadRecord) from a handler
// failure.
func walkGroup(payload []byte, fn func(Record) error) error {
	for len(payload) > 0 {
		switch tag := payload[0]; tag {
		case recAdmit, recTeardown, recEpoch, recLease:
			n := recordLen(tag)
			if len(payload) < n {
				return fmt.Errorf("%w: %d bytes left in group, record type 0x%02x needs %d",
					ErrBadRecord, len(payload), tag, n)
			}
			rec, err := DecodeRecord(payload[:n])
			if err != nil {
				return err
			}
			if err := fn(rec); err != nil {
				return err
			}
			payload = payload[n:]
		case recAdmitBatch:
			if len(payload) < admitBatchHeaderLen {
				return fmt.Errorf("%w: admit batch header needs %d bytes, group has %d",
					ErrBadRecord, admitBatchHeaderLen, len(payload))
			}
			seqBase := binary.LittleEndian.Uint64(payload[1:])
			count := int(binary.LittleEndian.Uint32(payload[9:]))
			if count == 0 || count > maxGroupRecords {
				return fmt.Errorf("%w: admit batch count %d outside 1..%d", ErrBadRecord, count, maxGroupRecords)
			}
			total := admitBatchHeaderLen + count*admitBatchUnitLen
			if len(payload) < total {
				return fmt.Errorf("%w: admit batch of %d needs %d bytes, group has %d",
					ErrBadRecord, count, total, len(payload))
			}
			units := payload[admitBatchHeaderLen:total]
			for i := 0; i < count; i++ {
				u := units[i*admitBatchUnitLen:]
				rec := Record{
					Kind:  recAdmit,
					ID:    binary.LittleEndian.Uint64(u),
					Seq:   seqBase + uint64(i),
					Class: int32(binary.LittleEndian.Uint32(u[8:])),
					Route: int32(binary.LittleEndian.Uint32(u[12:])),
				}
				if err := fn(rec); err != nil {
					return err
				}
			}
			payload = payload[total:]
		case recTeardownBatch:
			if len(payload) < teardownBatchHeaderLen {
				return fmt.Errorf("%w: teardown batch header needs %d bytes, group has %d",
					ErrBadRecord, teardownBatchHeaderLen, len(payload))
			}
			count := int(binary.LittleEndian.Uint32(payload[1:]))
			if count == 0 || count > maxGroupRecords {
				return fmt.Errorf("%w: teardown batch count %d outside 1..%d", ErrBadRecord, count, maxGroupRecords)
			}
			total := teardownBatchHeaderLen + count*teardownBatchUnitLen
			if len(payload) < total {
				return fmt.Errorf("%w: teardown batch of %d needs %d bytes, group has %d",
					ErrBadRecord, count, total, len(payload))
			}
			units := payload[teardownBatchHeaderLen:total]
			for i := 0; i < count; i++ {
				rec := Record{Kind: recTeardown, ID: binary.LittleEndian.Uint64(units[i*teardownBatchUnitLen:])}
				if err := fn(rec); err != nil {
					return err
				}
			}
			payload = payload[total:]
		default:
			return fmt.Errorf("%w: unknown record type 0x%02x", ErrBadRecord, tag)
		}
	}
	return nil
}

// frameResult classifies one attempt to read a frame out of a segment's
// data region.
type frameResult int

const (
	frameOK   frameResult = iota // valid frame decoded
	frameEnd                     // clean end of data (zero frame)
	frameTorn                    // length/CRC does not check out
)

// nextFrame reads the frame at data[off:]. On frameOK it returns the
// payload (aliasing data) and the offset of the next frame.
func nextFrame(data []byte, off int) (payload []byte, next int, res frameResult) {
	if off+frameHeaderLen > len(data) {
		// A partial header at the very end: torn unless it is all zeros,
		// which is indistinguishable from preallocated padding and
		// therefore a clean end.
		for _, b := range data[off:] {
			if b != 0 {
				return nil, off, frameTorn
			}
		}
		return nil, off, frameEnd
	}
	length := binary.LittleEndian.Uint32(data[off:])
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if length == 0 {
		if crc == 0 {
			return nil, off, frameEnd
		}
		return nil, off, frameTorn
	}
	if length > maxPayloadLen || off+frameHeaderLen+int(length) > len(data) {
		return nil, off, frameTorn
	}
	payload = data[off+frameHeaderLen : off+frameHeaderLen+int(length)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, off, frameTorn
	}
	return payload, off + frameHeaderLen + int(length), frameOK
}
