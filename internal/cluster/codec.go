package cluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"ubac/internal/wire"
)

// Cluster frame bodies, packed little-endian against the unit sizes
// exported by the wire package (the layouts are documented there).

// leaseItem is one (class, route) cell's renewal: the edge's current
// split and how much more budget it wants. Grants come back positive;
// leaseRejected marks an item the authority could not account (the
// edge must not refresh that cell's TTL).
type leaseItem struct {
	ci   int32
	ri   int32
	act  uint64
	bud  uint64
	want uint64
}

// leaseRejected is the grant sentinel for an item the authority
// rejected (reattach reservation failed); distinct from a plain
// zero-grant renewal, which still refreshes the TTL.
const leaseRejected = ^uint64(0)

func appendLeaseReq(b []byte, node uint32, items []leaseItem) []byte {
	b = binary.LittleEndian.AppendUint32(b, node)
	for _, it := range items {
		b = binary.LittleEndian.AppendUint32(b, uint32(it.ci))
		b = binary.LittleEndian.AppendUint32(b, uint32(it.ri))
		b = binary.LittleEndian.AppendUint64(b, it.act)
		b = binary.LittleEndian.AppendUint64(b, it.bud)
		b = binary.LittleEndian.AppendUint64(b, it.want)
	}
	return b
}

// decodeLeaseReq decodes a lease request's items into items[:0].
func decodeLeaseReq(count uint16, body []byte, items []leaseItem) (node uint32, _ []leaseItem, err error) {
	if len(body) != 4+int(count)*wire.LeaseReqUnitLen {
		return 0, items, fmt.Errorf("cluster: lease request body %d bytes, want %d", len(body), 4+int(count)*wire.LeaseReqUnitLen)
	}
	node = binary.LittleEndian.Uint32(body)
	items = items[:0]
	for off := 4; off < len(body); off += wire.LeaseReqUnitLen {
		items = append(items, leaseItem{
			ci:   int32(binary.LittleEndian.Uint32(body[off:])),
			ri:   int32(binary.LittleEndian.Uint32(body[off+4:])),
			act:  binary.LittleEndian.Uint64(body[off+8:]),
			bud:  binary.LittleEndian.Uint64(body[off+16:]),
			want: binary.LittleEndian.Uint64(body[off+24:]),
		})
	}
	return node, items, nil
}

func appendLeaseResp(b []byte, ttl time.Duration, items []leaseItem, grants []uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(ttl/time.Millisecond))
	for i, it := range items {
		b = binary.LittleEndian.AppendUint32(b, uint32(it.ci))
		b = binary.LittleEndian.AppendUint32(b, uint32(it.ri))
		b = binary.LittleEndian.AppendUint64(b, grants[i])
	}
	return b
}

// decodeLeaseResp decodes the response to a lease request for items
// into grants[:0], one per item (or leaseRejected), refusing a response
// whose items are not the request's.
func decodeLeaseResp(body []byte, items []leaseItem, grants []uint64) (_ []uint64, ttl time.Duration, err error) {
	if len(body) != 4+len(items)*wire.LeaseRespUnitLen {
		return grants, 0, fmt.Errorf("cluster: lease response body %d bytes for %d items", len(body), len(items))
	}
	ttl = time.Duration(binary.LittleEndian.Uint32(body)) * time.Millisecond
	grants = grants[:0]
	for i, it := range items {
		off := 4 + i*wire.LeaseRespUnitLen
		ci, ri := int32(binary.LittleEndian.Uint32(body[off:])), int32(binary.LittleEndian.Uint32(body[off+4:]))
		if ci != it.ci || ri != it.ri {
			return grants, 0, fmt.Errorf("cluster: lease response item %d is (%d,%d), want (%d,%d)", i, ci, ri, it.ci, it.ri)
		}
		grants = append(grants, binary.LittleEndian.Uint64(body[off+8:]))
	}
	return grants, ttl, nil
}

func appendHeartbeatReq(b []byte, node uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, node)
}

func decodeHeartbeatReq(body []byte) (node uint32, err error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("cluster: heartbeat request body %d bytes", len(body))
	}
	return binary.LittleEndian.Uint32(body), nil
}

func appendHeartbeatResp(b []byte, role Role, authority uint32, epoch uint64) []byte {
	b = append(b, byte(role))
	b = binary.LittleEndian.AppendUint32(b, authority)
	return binary.LittleEndian.AppendUint64(b, epoch)
}

func decodeHeartbeatResp(body []byte) (role Role, authority uint32, epoch uint64, err error) {
	if len(body) != wire.HeartbeatRespLen {
		return 0, 0, 0, fmt.Errorf("cluster: heartbeat response body %d bytes", len(body))
	}
	return Role(body[0]), binary.LittleEndian.Uint32(body[1:]), binary.LittleEndian.Uint64(body[5:]), nil
}

func appendFetchReq(b []byte, seg uint64, off int64, max uint32) []byte {
	b = binary.LittleEndian.AppendUint64(b, seg)
	b = binary.LittleEndian.AppendUint64(b, uint64(off))
	return binary.LittleEndian.AppendUint32(b, max)
}

func decodeFetchReq(body []byte) (seg uint64, off int64, max uint32, err error) {
	if len(body) != wire.FetchReqLen {
		return 0, 0, 0, fmt.Errorf("cluster: fetch request body %d bytes", len(body))
	}
	return binary.LittleEndian.Uint64(body), int64(binary.LittleEndian.Uint64(body[8:])),
		binary.LittleEndian.Uint32(body[16:]), nil
}

func appendFetchResp(b []byte, tailSeg uint64, tailOff int64, eos bool, data []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, tailSeg)
	b = binary.LittleEndian.AppendUint64(b, uint64(tailOff))
	if eos {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return append(b, data...)
}

func decodeFetchResp(body []byte) (tailSeg uint64, tailOff int64, eos bool, data []byte, err error) {
	if len(body) < wire.FetchRespHeadLen {
		return 0, 0, false, nil, fmt.Errorf("cluster: fetch response body %d bytes", len(body))
	}
	return binary.LittleEndian.Uint64(body), int64(binary.LittleEndian.Uint64(body[8:])),
		body[16] != 0, body[wire.FetchRespHeadLen:], nil
}

// revokeItem is one relinquished amount: a detaching edge handing
// budget back to the authority.
type revokeItem struct {
	ci     int32
	ri     int32
	amount uint64
}

func appendRevokeReq(b []byte, node uint32, items []revokeItem) []byte {
	b = binary.LittleEndian.AppendUint32(b, node)
	for _, it := range items {
		b = binary.LittleEndian.AppendUint32(b, uint32(it.ci))
		b = binary.LittleEndian.AppendUint32(b, uint32(it.ri))
		b = binary.LittleEndian.AppendUint64(b, it.amount)
	}
	return b
}

func decodeRevokeReq(count uint16, body []byte) (node uint32, items []revokeItem, err error) {
	if len(body) != 4+int(count)*wire.RevokeReqUnitLen {
		return 0, nil, fmt.Errorf("cluster: revoke request body %d bytes, want %d", len(body), 4+int(count)*wire.RevokeReqUnitLen)
	}
	node = binary.LittleEndian.Uint32(body)
	items = make([]revokeItem, count)
	off := 4
	for i := range items {
		items[i] = revokeItem{
			ci:     int32(binary.LittleEndian.Uint32(body[off:])),
			ri:     int32(binary.LittleEndian.Uint32(body[off+4:])),
			amount: binary.LittleEndian.Uint64(body[off+8:]),
		}
		off += wire.RevokeReqUnitLen
	}
	return node, items, nil
}
