package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"ubac/internal/admission"
)

// maxBatchOps bounds the operation count of one :batch request
// independently of the 64 KiB body cap (minimal teardown entries are
// ~2 bytes, so the byte cap alone would admit ~20k operations).
const maxBatchOps = 4096

// batchRequest is the POST /v1/flows:batch body: any mix of
// admissions and teardowns, executed admissions-first.
type batchRequest struct {
	Admit    []flowRequest `json:"admit"`
	Teardown []uint64      `json:"teardown"`
}

// batchAdmitResult is one admission outcome; exactly one of ID or
// Error is set.
type batchAdmitResult struct {
	ID     uint64 `json:"id,omitempty"`
	Error  string `json:"error,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// batchTeardownResult is one teardown outcome.
type batchTeardownResult struct {
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Reason string `json:"reason,omitempty"`
}

type batchResponse struct {
	Admit    []batchAdmitResult    `json:"admit"`
	Teardown []batchTeardownResult `json:"teardown"`
}

// batchCodec carries one :batch request through decode → controller →
// encode with every slice reused across requests via batchCodecPool,
// replacing the singleton endpoint's per-request json.NewDecoder and
// per-decision response maps. Unlike the singleton decoder it uses
// json.Unmarshal over a pooled buffer, so unknown fields are ignored
// rather than rejected; required fields are still validated.
type batchCodec struct {
	buf   []byte
	req   batchRequest
	resp  batchResponse
	items []admission.BatchItem
	pos   []int32 // result index of each controller item
	res   []admission.BatchResult
	ids   []admission.FlowID
	errs  []error
}

var batchCodecPool = sync.Pool{
	New: func() any { return &batchCodec{buf: make([]byte, 0, 4096)} },
}

// errBatchEmpty / errBatchTooLarge are decode-level rejections,
// distinct from per-operation failures.
var (
	errBatchEmpty    = errors.New(`at least one "admit" or "teardown" entry is required`)
	errBatchTooLarge = fmt.Errorf("batch exceeds %d operations", maxBatchOps)
)

// decode reads and validates one :batch body into the codec. It is
// total over arbitrary input (fuzz-tested): any reader either yields a
// request whose admit entries all have class/src/dst present, or an
// error — never a panic. Slices left over from the codec's previous
// request are reset before unmarshaling so absent fields cannot leak
// stale operations.
func (bc *batchCodec) decode(r io.Reader) error {
	bc.buf = bc.buf[:0]
	for {
		if len(bc.buf) == cap(bc.buf) {
			bc.buf = append(bc.buf, 0)[:len(bc.buf)]
		}
		n, err := r.Read(bc.buf[len(bc.buf):cap(bc.buf)])
		bc.buf = bc.buf[:len(bc.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	// json.Unmarshal decodes array elements in place into the reused
	// backing arrays, so a field the body leaves out, or a null element,
	// would keep the previous request's value. Unmarshal only writes
	// below the length it sets, so zeroing the last request's elements
	// keeps everything past the length zero.
	clear(bc.req.Admit)
	clear(bc.req.Teardown)
	bc.req.Admit = bc.req.Admit[:0]
	bc.req.Teardown = bc.req.Teardown[:0]
	if err := json.Unmarshal(bc.buf, &bc.req); err != nil {
		return err
	}
	if len(bc.req.Admit)+len(bc.req.Teardown) == 0 {
		return errBatchEmpty
	}
	if len(bc.req.Admit)+len(bc.req.Teardown) > maxBatchOps {
		return errBatchTooLarge
	}
	for i, a := range bc.req.Admit {
		if a.Class == "" || a.Src == "" || a.Dst == "" {
			return fmt.Errorf(`admit[%d]: "class", "src" and "dst" are all required`, i)
		}
	}
	return nil
}

// handleFlowsBatch serves POST /v1/flows:batch: admissions and
// teardowns amortized through Controller.AdmitBatch/TeardownBatch.
// Per-operation failures are reported in-band with the same
// machine-readable reasons as the singleton endpoints; the HTTP status
// is 200 whenever the batch itself was well-formed.
func (s *server) handleFlowsBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxFlowBody)
	bc := batchCodecPool.Get().(*batchCodec)
	defer batchCodecPool.Put(bc)
	if err := bc.decode(r.Body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, "invalid request: "+err.Error())
		return
	}

	bc.resp.Admit = bc.resp.Admit[:0]
	bc.items = bc.items[:0]
	bc.pos = bc.pos[:0]
	for i, a := range bc.req.Admit {
		src, err := s.resolveRouter(a.Src)
		if err == nil {
			var dst int
			dst, err = s.resolveRouter(a.Dst)
			if err == nil {
				bc.items = append(bc.items, admission.BatchItem{Class: a.Class, Tenant: a.Tenant, Src: src, Dst: dst})
				bc.pos = append(bc.pos, int32(i))
			}
		}
		if err != nil {
			bc.resp.Admit = append(bc.resp.Admit,
				batchAdmitResult{Error: err.Error(), Reason: "unknown_router"})
			continue
		}
		bc.resp.Admit = append(bc.resp.Admit, batchAdmitResult{})
	}
	bc.res = s.ctrl.AdmitBatch(bc.items, bc.res)
	for k, r := range bc.res {
		out := &bc.resp.Admit[bc.pos[k]]
		if r.Err != nil {
			out.Error = r.Err.Error()
			out.Reason = admitReason(r.Err)
			continue
		}
		out.ID = uint64(r.ID)
	}

	bc.ids = bc.ids[:0]
	for _, id := range bc.req.Teardown {
		bc.ids = append(bc.ids, admission.FlowID(id))
	}
	bc.errs = s.ctrl.TeardownBatch(bc.ids, bc.errs)
	bc.resp.Teardown = bc.resp.Teardown[:0]
	for _, err := range bc.errs {
		if err != nil {
			bc.resp.Teardown = append(bc.resp.Teardown,
				batchTeardownResult{Error: err.Error(), Reason: admitReason(err)})
			continue
		}
		bc.resp.Teardown = append(bc.resp.Teardown, batchTeardownResult{OK: true})
	}

	writeJSON(w, http.StatusOK, &bc.resp)
}
