package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ubac/internal/admission"
	"ubac/internal/wire"
)

// The flow endpoints are a codec over the daemon's controller, the
// backend the wire transport serves too: a singleton POST or DELETE is
// a run of one, a :batch request one run of each kind, and every
// verdict is the controller's.

// FlowRequest is the POST /v1/flows body and one :batch admission.
type FlowRequest struct {
	Class string `json:"class"`
	// Tenant is optional: it feeds the installed admission policy
	// (token buckets key on it; SLO tiers may map it) and labels the
	// audit event.
	Tenant string `json:"tenant,omitempty"`
	Src    string `json:"src"`
	Dst    string `json:"dst"`
}

// DecodeFlowRequest parses a POST /v1/flows body. It is total over
// arbitrary input (fuzz-tested): any reader either yields a request
// with all three fields present or an error, never a panic. Unknown
// fields and trailing data are rejected so malformed clients fail
// loudly instead of silently admitting the wrong flow.
func DecodeFlowRequest(r io.Reader) (FlowRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req FlowRequest
	if err := dec.Decode(&req); err != nil {
		return FlowRequest{}, err
	}
	if dec.More() {
		return FlowRequest{}, errors.New("trailing data after request object")
	}
	if req.Class == "" || req.Src == "" || req.Dst == "" {
		return FlowRequest{}, errors.New(`"class", "src" and "dst" are all required`)
	}
	return req, nil
}

// BatchRequest is the POST /v1/flows:batch body: any mix of
// admissions and teardowns, executed admissions-first.
type BatchRequest struct {
	Admit    []FlowRequest      `json:"admit"`
	Teardown []admission.FlowID `json:"teardown"`
}

// batchAdmitResult is one admission outcome; exactly one of ID or
// Error is set.
type batchAdmitResult struct {
	ID     admission.FlowID `json:"id,omitempty"`
	Error  string           `json:"error,omitempty"`
	Reason string           `json:"reason,omitempty"`
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

// BatchCodec carries one request's runs through body → controller →
// response with every slice reused across requests via batchCodecPool.
// The :batch decoder uses json.Unmarshal over the pooled buffer, so
// unknown fields are ignored rather than rejected (the singleton's
// DecodeFlowRequest refuses them); required fields are still
// validated.
type BatchCodec struct {
	body  bytes.Buffer
	req   BatchRequest
	resp  batchResponse
	items []admission.BatchItem
	pos   []int32 // result index of each controller item
	res   []admission.BatchResult
	errs  []error
}

var batchCodecPool = sync.Pool{New: func() any { return new(BatchCodec) }}

// Request is the body the last Decode read.
func (bc *BatchCodec) Request() *BatchRequest { return &bc.req }

// errBatchEmpty / errBatchTooLarge are decode-level rejections,
// distinct from per-operation failures. A request is capped at the
// largest run the backend is given on either transport.
var (
	errBatchEmpty    = errors.New(`at least one "admit" or "teardown" entry is required`)
	errBatchTooLarge = fmt.Errorf("batch exceeds %d operations", wire.MaxFrameOps)
)

// read fills bc.body with the whole of r.
func (bc *BatchCodec) read(r io.Reader) error {
	bc.body.Reset()
	_, err := bc.body.ReadFrom(r)
	return err
}

// Decode reads and validates one :batch body into the codec. It is
// total over arbitrary input (fuzz-tested): any reader either yields a
// request whose admit entries all have class/src/dst present, or an
// error — never a panic. Slices left over from the codec's previous
// request are reset before unmarshaling so absent fields cannot leak
// stale operations.
func (bc *BatchCodec) Decode(r io.Reader) error {
	if err := bc.read(r); err != nil {
		return err
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
	if err := json.Unmarshal(bc.body.Bytes(), &bc.req); err != nil {
		return err
	}
	if len(bc.req.Admit)+len(bc.req.Teardown) == 0 {
		return errBatchEmpty
	}
	if len(bc.req.Admit)+len(bc.req.Teardown) > wire.MaxFrameOps {
		return errBatchTooLarge
	}
	for i, a := range bc.req.Admit {
		if a.Class == "" || a.Src == "" || a.Dst == "" {
			return fmt.Errorf(`admit[%d]: "class", "src" and "dst" are all required`, i)
		}
	}
	return nil
}

// admitRun resolves the routers of bc.req.Admit and hands every
// resolvable request to the controller in one AdmitBatch;
// bc.resp.Admit[i] is request i's outcome. A router the topology does
// not know is "unknown_router", the one reason the controller never gives.
func (s *server) admitRun(bc *BatchCodec) {
	bc.resp.Admit = bc.resp.Admit[:0]
	bc.items = bc.items[:0]
	bc.pos = bc.pos[:0]
	for i, a := range bc.req.Admit {
		src, err := s.resolveRouter(a.Src)
		var dst int
		if err == nil {
			dst, err = s.resolveRouter(a.Dst)
		}
		if err != nil {
			bc.resp.Admit = append(bc.resp.Admit, batchAdmitResult{Error: err.Error(), Reason: "unknown_router"})
			continue
		}
		bc.items = append(bc.items, admission.BatchItem{Class: a.Class, Tenant: a.Tenant, Src: src, Dst: dst})
		bc.pos = append(bc.pos, int32(i))
		bc.resp.Admit = append(bc.resp.Admit, batchAdmitResult{})
	}
	bc.res = s.ctrl.AdmitBatch(bc.items, bc.res)
	for k, r := range bc.res {
		out := &bc.resp.Admit[bc.pos[k]]
		if r.Err != nil {
			out.Error, out.Reason = r.Err.Error(), wire.Reason(r.Err)
			continue
		}
		out.ID = r.ID
	}
}

// teardownRun hands bc.req.Teardown to the controller in one
// TeardownBatch; bc.resp.Teardown[i] is ID i's outcome.
func (s *server) teardownRun(bc *BatchCodec) {
	bc.errs = s.ctrl.TeardownBatch(bc.req.Teardown, bc.errs)
	bc.resp.Teardown = bc.resp.Teardown[:0]
	for _, err := range bc.errs {
		out := batchTeardownResult{OK: err == nil}
		if err != nil {
			out.Error, out.Reason = err.Error(), wire.Reason(err)
		}
		bc.resp.Teardown = append(bc.resp.Teardown, out)
	}
}

// writeBodyErr refuses a request body: 413 past the cap, 400 for
// anything the decoder would not take.
func writeBodyErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
		return
	}
	writeErr(w, http.StatusBadRequest, "invalid request: "+err.Error())
}

// writeRefused writes a singleton's refusal: the message, the reason
// and the status StatusForReason gives it.
func writeRefused(w http.ResponseWriter, msg, reason string) {
	writeJSON(w, StatusForReason(reason), map[string]string{"error": msg, "reason": reason})
}

func (s *server) handleFlows(w http.ResponseWriter, r *http.Request) {
	bc := batchCodecPool.Get().(*BatchCodec)
	defer batchCodecPool.Put(bc)
	// The whole body is read before it is parsed, so one past the cap is
	// refused even when a complete request sits in its first 64 KiB.
	err := bc.read(http.MaxBytesReader(w, r.Body, MaxFlowBody))
	var req FlowRequest
	if err == nil {
		req, err = DecodeFlowRequest(&bc.body)
	}
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	bc.req.Admit = append(bc.req.Admit[:0], req)
	s.admitRun(bc)
	out := bc.resp.Admit[0]
	if out.Reason != "" {
		writeRefused(w, out.Error, out.Reason)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]admission.FlowID{"id": out.ID})
}

func (s *server) handleFlowByID(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/v1/flows/"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid flow id")
		return
	}
	bc := batchCodecPool.Get().(*BatchCodec)
	defer batchCodecPool.Put(bc)
	bc.req.Teardown = append(bc.req.Teardown[:0], admission.FlowID(id))
	s.teardownRun(bc)
	if out := bc.resp.Teardown[0]; !out.OK {
		writeRefused(w, out.Error, out.Reason)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFlowsBatch serves POST /v1/flows:batch: the admissions as one
// run, then the teardowns as another. Per-operation failures are
// reported in-band with the same machine-readable reasons as the
// singleton endpoints; the HTTP status is 200 whenever the batch itself
// was well-formed.
func (s *server) handleFlowsBatch(w http.ResponseWriter, r *http.Request) {
	bc := batchCodecPool.Get().(*BatchCodec)
	defer batchCodecPool.Put(bc)
	if err := bc.Decode(http.MaxBytesReader(w, r.Body, MaxFlowBody)); err != nil {
		writeBodyErr(w, err)
		return
	}
	s.admitRun(bc)
	s.teardownRun(bc)
	writeJSON(w, http.StatusOK, &bc.resp)
}
