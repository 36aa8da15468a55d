// Package wire is the daemon's binary transport: a length-prefixed,
// CRC32C-checked framed protocol over TCP that carries admission
// traffic at a fraction of the HTTP path's per-request cost, plus the
// pipelined client that drives it.
//
// A connection opens with an 8-byte versioned magic from the client,
// then exchanges frames in both directions. Frames reuse the WAL's
// framing discipline exactly — little-endian u32 length, u32
// CRC32C(payload), payload — so torn and corrupt frames are detected
// the same way a torn log tail is, and the packed per-operation units
// inside admit/teardown frames mirror the WAL's packed batch record
// encodings (a teardown unit IS the WAL teardown-batch unit):
//
//	u32 payloadLen | u32 CRC32C(payload) | payload
//	payload: u8 type | u8 flags | u16 count | u64 seq | body
//
// count is the number of packed units in the body for batch-shaped
// frames; seq correlates a response (FlagResp set) with its request,
// so a client may pipeline any number of frames and match answers out
// of order. Bodies by type:
//
//	hello     req: u32 proto version        resp: u32 version, count × {u8 len, name}
//	admit     req: count × {u32 class, u32 src, u32 dst}
//	          resp: count × {u64 id, u32 status}
//	teardown  req: count × {u64 id}         resp: count × {u8 status}
//	routes    req: u32 class (^0 = all)     resp: count × {u32 class, u32 src, u32 dst}
//	ping      req: empty                    resp: empty
//
// The server drains every complete frame a read pass delivers before
// answering any of them: consecutive runs of admit (or teardown)
// frames are coalesced into one Controller.AdmitBatch (TeardownBatch)
// call, so a pipelined connection amortizes syscall, scheduler and
// shard-lock cost across everything in flight while verdicts stay
// bit-identical to per-request processing (runs never reorder an admit
// past a teardown or vice versa).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"ubac/internal/admission"
)

// Magic is the connection preamble: protocol name plus version digit.
// A server that cannot speak the dialed version closes the connection
// at the preamble, before any frame is interpreted.
var Magic = [8]byte{'U', 'B', 'A', 'C', 'W', 'R', '0', '1'}

// ProtoVersion is carried in hello frames (and as the magic's trailing
// digits) so both ends agree before any admission traffic flows.
const ProtoVersion = 1

// Frame types. A response carries the request's type with FlagResp set.
const (
	FrameHello    = 0x01
	FrameAdmit    = 0x02
	FrameTeardown = 0x03
	FrameRoutes   = 0x04
	FramePing     = 0x05

	// Cluster frame types, dispatched to Options.Cluster when one is
	// configured (otherwise they are protocol errors, exactly like any
	// unknown type). Bodies are packed by internal/cluster; the wire
	// layer only defines the type space and unit sizes.
	//
	//	lease     req: u32 node, count × {u32 class, u32 route, u64 active, u64 budget, u64 want}
	//	          resp: u32 ttlMillis, count × {u32 class, u32 route, u64 grant}
	//	heartbeat req: u32 node                resp: u8 role, u32 authority, u64 epoch
	//	fetch     req: u64 seg, u64 off, u32 max
	//	          resp: u64 tailSeg, u64 tailOff, u8 eos, data
	//	          (tail fields are the authority's durable WAL tail, so a
	//	          follower computes replication lag from the same response
	//	          that ships it bytes; data starts at the requested offset)
	//	revoke    req: u32 node, count × {u32 class, u32 route, u64 amount}
	//	          resp: count × {u8 status}
	FrameLease     = 0x06
	FrameHeartbeat = 0x07
	FrameFetch     = 0x08
	FrameRevoke    = 0x09
)

// Frame flags.
const (
	// FlagResp marks a response frame.
	FlagResp = 0x01
	// FlagError marks a response whose body is a protocol-level error:
	// u32 status followed by a human-readable message. Per-operation
	// admission outcomes are NOT errors — they ride the normal response
	// units' status fields.
	FlagError = 0x02
	// FlagMore marks a chunked response continuation: more frames with
	// the same seq follow (used by routes responses whose unit count
	// exceeds MaxFrameOps).
	FlagMore = 0x04
)

// Frame geometry, shared with the WAL's framing constants.
const (
	// frameHeaderLen is the u32 length + u32 CRC prefix.
	frameHeaderLen = 8
	// payloadHeaderLen is the type/flags/count/seq header inside the
	// CRC-covered payload.
	payloadHeaderLen = 12
	// MaxPayload bounds one frame's payload; a length field beyond it is
	// corruption (or an attack), not an allocation request.
	MaxPayload = 1 << 20
	// MaxFrameOps bounds the unit count of one batch-shaped frame, and
	// is the largest run either transport hands the backend: a coalesced
	// run of frames and an HTTP :batch request alike.
	MaxFrameOps = 4096
)

// Packed unit sizes.
const (
	admitReqUnitLen  = 12 // u32 class, u32 src, u32 dst
	admitRespUnitLen = 12 // u64 id, u32 status
	teardownUnitLen  = 8  // u64 id (the WAL teardown-batch unit)
	teardownRespLen  = 1  // u8 status
	routeUnitLen     = 12 // u32 class, u32 src, u32 dst

	// Cluster unit sizes, exported so internal/cluster packs bodies with
	// the same constants the server validates against.
	LeaseReqUnitLen  = 32 // u32 class, u32 route, u64 active, u64 budget, u64 want
	LeaseRespUnitLen = 16 // u32 class, u32 route, u64 grant
	RevokeReqUnitLen = 16 // u32 class, u32 route, u64 amount
	FetchReqLen      = 20 // u64 seg, u64 off, u32 max
	FetchRespHeadLen = 17 // u64 seg, u64 off, u8 eos
	HeartbeatRespLen = 13 // u8 role, u32 authority, u64 epoch
)

// Status codes: per-operation outcomes carried in response units, and
// the leading u32 of a protocol-error frame's body.
const (
	StatusOK            = 0
	StatusCapacity      = 1
	StatusNoRoute       = 2
	StatusUnknownClass  = 3
	StatusUnknownFlow   = 4
	StatusShuttingDown  = 5
	StatusPolicyRate    = 6
	StatusPolicyShed    = 7
	StatusPolicyReserve = 8
	StatusTooManyFlows  = 9
	StatusInternal      = 10
	// StatusFetchOutOfRange answers a cluster fetch for a log position
	// the authority does not hold (error frames only).
	StatusFetchOutOfRange = 11
)

// ErrFetchOutOfRange is what StatusFetchOutOfRange decodes to: the
// fetching follower's mirror is ahead of the authority's log.
var ErrFetchOutOfRange = errors.New("wire: fetch position outside the authority's log")

// castagnoli is the same CRC32C table the WAL frames with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors.
var (
	// ErrShort means the buffer ends before the frame does: read more
	// bytes and retry. A stream that ends mid-frame is torn.
	ErrShort = errors.New("wire: incomplete frame")
	// ErrFrame means the bytes can never become a valid frame — bad
	// length, bad CRC — and the connection carrying them is broken.
	ErrFrame = errors.New("wire: malformed frame")
)

// Frame is one decoded frame. Body aliases the decode input and is
// only valid until the caller recycles that buffer.
type Frame struct {
	Type  byte
	Flags byte
	Count uint16
	Seq   uint64
	Body  []byte
}

// AppendFrame encodes one frame onto dst and returns the extended
// slice. It is the only encoder — clients, the server and the golden
// vectors all share it.
func AppendFrame(dst []byte, typ, flags byte, count uint16, seq uint64, body []byte) []byte {
	payloadLen := payloadHeaderLen + len(body)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC patched below
	dst = append(dst, typ, flags)
	dst = binary.LittleEndian.AppendUint16(dst, count)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, body...)
	crc := crc32.Checksum(dst[base+4:], castagnoli)
	binary.LittleEndian.PutUint32(dst[base:], crc)
	return dst
}

// DecodeFrame parses the frame at the head of b. On success it returns
// the frame (Body aliasing b) and the bytes consumed. ErrShort means b
// holds a frame prefix and more bytes are needed; consumed is 0 and
// the caller should read more. Any other error means b can never parse
// and the stream is corrupt. DecodeFrame is total over arbitrary
// input: it never panics and never allocates beyond the returned
// struct (fuzz-tested by FuzzDecodeFrame).
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < frameHeaderLen {
		return Frame{}, 0, ErrShort
	}
	payloadLen := binary.LittleEndian.Uint32(b)
	if payloadLen < payloadHeaderLen {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d below header %d", ErrFrame, payloadLen, payloadHeaderLen)
	}
	if payloadLen > MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrame, payloadLen, MaxPayload)
	}
	total := frameHeaderLen + int(payloadLen)
	if len(b) < total {
		return Frame{}, 0, ErrShort
	}
	crc := binary.LittleEndian.Uint32(b[4:])
	payload := b[frameHeaderLen:total]
	if crc32.Checksum(payload, castagnoli) != crc {
		return Frame{}, 0, fmt.Errorf("%w: CRC mismatch", ErrFrame)
	}
	return Frame{
		Type:  payload[0],
		Flags: payload[1],
		Count: binary.LittleEndian.Uint16(payload[2:]),
		Seq:   binary.LittleEndian.Uint64(payload[4:]),
		Body:  payload[payloadHeaderLen:],
	}, total, nil
}

// statuses is the one home of the reject vocabulary, shared by both
// transports. Indexed by status code, a row holds the sentinel the
// status stands for, the event-schema reason that /metrics, the audit
// trail and HTTP bodies name it by, and whether it is a verdict (a
// reject the audit trail records) rather than a failure. A full
// registry is recorded as a capacity reject, and so is named one.
var statuses = [...]struct {
	err    error
	reason string
	reject bool
}{
	StatusOK:              {nil, "", false},
	StatusCapacity:        {admission.ErrCapacity, "capacity", true},
	StatusNoRoute:         {admission.ErrNoRoute, "no_route", true},
	StatusUnknownClass:    {admission.ErrUnknownClass, "unknown_class", true},
	StatusUnknownFlow:     {admission.ErrUnknownFlow, "unknown_flow", false},
	StatusShuttingDown:    {admission.ErrShuttingDown, "shutting_down", false},
	StatusPolicyRate:      {admission.ErrPolicyRate, "policy_token_bucket", true},
	StatusPolicyShed:      {admission.ErrPolicyShed, "policy_shed", true},
	StatusPolicyReserve:   {admission.ErrPolicyReserve, "policy_reserve", true},
	StatusTooManyFlows:    {admission.ErrTooManyFlows, "capacity", true},
	StatusInternal:        {nil, "internal", false},
	StatusFetchOutOfRange: {ErrFetchOutOfRange, "internal", false},
}

// statusOf maps an error to the status of the first row whose sentinel
// it wraps; nil is StatusOK and anything else StatusInternal.
func statusOf(err error) uint32 {
	if err == nil {
		return StatusOK
	}
	for st, row := range statuses {
		if row.err != nil && errors.Is(err, row.err) {
			return uint32(st)
		}
	}
	return StatusInternal
}

// StatusErr maps a wire status code back to the admission sentinel the
// server derived it from, so wire clients surface the same error
// values an in-process caller would see. StatusOK maps to nil.
func StatusErr(status uint32) error {
	if status < uint32(len(statuses)) && (status == StatusOK || statuses[status].err != nil) {
		return statuses[status].err
	}
	return fmt.Errorf("wire: status %d", status)
}

// StatusRejected reports whether a status is an admission rejection —
// a verdict, as opposed to a transport or server failure. Load
// generators count these as rejects, not errors.
func StatusRejected(status uint32) bool {
	return status < uint32(len(statuses)) && statuses[status].reject
}

// Reason names an admit or teardown outcome in the event schema: ""
// for nil, "internal" for an error that wraps no sentinel.
func Reason(err error) string {
	return statuses[statusOf(err)].reason
}

// RoutePair is one admittable (class, src, dst) tuple from a routes
// response; indices are the daemon's configured class and router
// indices.
type RoutePair struct {
	Class    uint32
	Src, Dst uint32
}

// AllClasses is the routes-request class wildcard.
const AllClasses = math.MaxUint32

// appendErrorFrame encodes a protocol-error response for seq.
func appendErrorFrame(dst []byte, typ byte, seq uint64, status uint32, msg string) []byte {
	body := make([]byte, 0, 4+len(msg))
	body = binary.LittleEndian.AppendUint32(body, status)
	body = append(body, msg...)
	return AppendFrame(dst, typ, FlagResp|FlagError, 0, seq, body)
}
