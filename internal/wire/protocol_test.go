package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ubac/internal/admission"
	"ubac/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata golden vectors")

func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xab}, 4096), make([]byte, MaxPayload-payloadHeaderLen)}
	for _, body := range bodies {
		buf := AppendFrame(nil, FrameAdmit, FlagResp, 3, 0x1122334455667788, body)
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode %d-byte body: %v", len(body), err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d", n, len(buf))
		}
		if f.Type != FrameAdmit || f.Flags != FlagResp || f.Count != 3 || f.Seq != 0x1122334455667788 {
			t.Fatalf("header mismatch: %+v", f)
		}
		if !bytes.Equal(f.Body, body) {
			t.Fatalf("body mismatch for %d bytes", len(body))
		}
	}
}

func TestDecodeFrameShort(t *testing.T) {
	full := AppendFrame(nil, FramePing, 0, 0, 42, []byte("abc"))
	for cut := 0; cut < len(full); cut++ {
		_, n, err := DecodeFrame(full[:cut])
		if !errors.Is(err, ErrShort) {
			t.Fatalf("prefix %d/%d: want ErrShort, got %v", cut, len(full), err)
		}
		if n != 0 {
			t.Fatalf("prefix %d: consumed %d", cut, n)
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	// Oversized length field: corruption, not an allocation request.
	huge := make([]byte, frameHeaderLen)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized length: want ErrFrame, got %v", err)
	}
	// Length below the payload header minimum.
	tiny := make([]byte, frameHeaderLen)
	tiny[0] = payloadHeaderLen - 1
	if _, _, err := DecodeFrame(tiny); !errors.Is(err, ErrFrame) {
		t.Fatalf("undersized length: want ErrFrame, got %v", err)
	}
	// Flipped payload bit: CRC catches it.
	full := AppendFrame(nil, FrameAdmit, 0, 1, 7, []byte{1, 2, 3, 4})
	full[len(full)-1] ^= 0x01
	if _, _, err := DecodeFrame(full); !errors.Is(err, ErrFrame) {
		t.Fatalf("corrupt payload: want ErrFrame, got %v", err)
	}
	// Flipped CRC field.
	full = AppendFrame(nil, FrameAdmit, 0, 1, 7, []byte{1, 2, 3, 4})
	full[5] ^= 0x80
	if _, _, err := DecodeFrame(full); !errors.Is(err, ErrFrame) {
		t.Fatalf("corrupt CRC: want ErrFrame, got %v", err)
	}
}

// TestStatusMappingBijective walks every row of the status table: a
// row's sentinel, bare or wrapped, maps to the row's status and back to
// the sentinel, and no two rows share a sentinel.
func TestStatusMappingBijective(t *testing.T) {
	if len(statuses) != StatusFetchOutOfRange+1 {
		t.Fatalf("status table has %d rows, want one per status code (%d)", len(statuses), StatusFetchOutOfRange+1)
	}
	seen := map[error]uint32{}
	for i, row := range statuses {
		st := uint32(i)
		if row.err == nil {
			if st != StatusOK && st != StatusInternal {
				t.Errorf("status %d has no sentinel", st)
			}
			continue
		}
		if prev, dup := seen[row.err]; dup {
			t.Errorf("statuses %d and %d share sentinel %v", prev, st, row.err)
		}
		seen[row.err] = st
		for _, err := range []error{row.err, fmt.Errorf("context: %w", row.err)} {
			if got := statusOf(err); got != st {
				t.Errorf("statusOf(%v) = %d, want %d", err, got, st)
			}
			if got := Reason(err); got != row.reason {
				t.Errorf("Reason(%v) = %q, want %q", err, got, row.reason)
			}
		}
		if back := StatusErr(st); back != row.err {
			t.Errorf("status %d: StatusErr = %v, want %v", st, back, row.err)
		}
	}
	if statusOf(nil) != StatusOK || StatusErr(StatusOK) != nil || Reason(nil) != "" {
		t.Error("nil must map to StatusOK and back, with no reason")
	}
	if statusOf(errors.New("surprise")) != StatusInternal || Reason(errors.New("surprise")) != "internal" {
		t.Fatal("unknown errors must map to StatusInternal, reason internal")
	}
	if StatusErr(StatusInternal) == nil || StatusErr(999) == nil {
		t.Fatal("internal / unknown statuses must map to a non-nil error")
	}
	if StatusRejected(999) {
		t.Error("an unknown status is not a reject")
	}
}

// TestRejectReasonsMatchVerdicts pairs each reject sentinel with the
// verdict the controller records for it: the table must name it as
// the audit trail and ubac_reject_total do, and count it as a reject.
// Teardown and transport outcomes are no verdict, so never a reject.
func TestRejectReasonsMatchVerdicts(t *testing.T) {
	for _, tc := range []struct {
		err     error
		verdict telemetry.Verdict
	}{
		{admission.ErrCapacity, telemetry.RejectedCapacity},
		{admission.ErrTooManyFlows, telemetry.RejectedCapacity},
		{admission.ErrNoRoute, telemetry.RejectedNoRoute},
		{admission.ErrUnknownClass, telemetry.RejectedUnknownClass},
		{admission.ErrPolicyRate, telemetry.RejectedPolicyRate},
		{admission.ErrPolicyShed, telemetry.RejectedPolicyShed},
		{admission.ErrPolicyReserve, telemetry.RejectedPolicyReserve},
	} {
		if got, want := Reason(tc.err), tc.verdict.Reason(); got != want {
			t.Errorf("%v: reason %q, the controller records %q", tc.err, got, want)
		}
		if !StatusRejected(statusOf(tc.err)) {
			t.Errorf("%v: not counted as a reject", tc.err)
		}
	}
	for _, err := range []error{admission.ErrUnknownFlow, admission.ErrShuttingDown, ErrFetchOutOfRange, errors.New("surprise")} {
		if StatusRejected(statusOf(err)) {
			t.Errorf("%v: counted as a reject", err)
		}
	}
}

// goldenVector pins one frame's exact byte layout. The committed
// vectors are the wire format's compatibility contract: a change that
// fails this test breaks every peer speaking version 1.
type goldenVector struct {
	Name  string `json:"name"`
	Type  byte   `json:"type"`
	Flags byte   `json:"flags"`
	Count uint16 `json:"count"`
	Seq   uint64 `json:"seq"`
	Body  string `json:"body_hex"`
	Frame string `json:"frame_hex"`
}

func goldenInputs() []goldenVector {
	return []goldenVector{
		{Name: "hello_req", Type: FrameHello, Count: 0, Seq: 1, Body: "01000000"},
		{Name: "hello_resp_two_classes", Type: FrameHello, Flags: FlagResp, Count: 2, Seq: 1,
			Body: "01000000" + "05" + hex.EncodeToString([]byte("voice")) + "0b" + hex.EncodeToString([]byte("best-effort"))},
		{Name: "admit_req_two_units", Type: FrameAdmit, Count: 2, Seq: 7,
			Body: "00000000" + "01000000" + "02000000" + "00000000" + "03000000" + "04000000"},
		{Name: "admit_resp_ok_and_capacity", Type: FrameAdmit, Flags: FlagResp, Count: 2, Seq: 7,
			Body: "0100000000000000" + "00000000" + "0000000000000000" + "01000000"},
		{Name: "teardown_req_one_id", Type: FrameTeardown, Count: 1, Seq: 8, Body: "2a00000000000000"},
		{Name: "teardown_resp_ok", Type: FrameTeardown, Flags: FlagResp, Count: 1, Seq: 8, Body: "00"},
		{Name: "routes_req_all", Type: FrameRoutes, Count: 0, Seq: 9, Body: "ffffffff"},
		{Name: "routes_resp_chunk", Type: FrameRoutes, Flags: FlagResp | FlagMore, Count: 1, Seq: 9,
			Body: "00000000" + "05000000" + "06000000"},
		{Name: "ping", Type: FramePing, Count: 0, Seq: 0xdeadbeef},
		{Name: "error_shutting_down", Type: FrameAdmit, Flags: FlagResp | FlagError, Count: 0, Seq: 10,
			Body: "05000000" + hex.EncodeToString([]byte("drain"))},
	}
}

func TestGoldenVectors(t *testing.T) {
	path := filepath.Join("testdata", "golden_frames.json")
	if *update {
		vecs := goldenInputs()
		for i := range vecs {
			body, err := hex.DecodeString(vecs[i].Body)
			if err != nil {
				t.Fatal(err)
			}
			vecs[i].Frame = hex.EncodeToString(AppendFrame(nil, vecs[i].Type, vecs[i].Flags, vecs[i].Count, vecs[i].Seq, body))
		}
		data, err := json.MarshalIndent(vecs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden vectors missing (run with -update to regenerate): %v", err)
	}
	var vecs []goldenVector
	if err := json.Unmarshal(data, &vecs); err != nil {
		t.Fatal(err)
	}
	if len(vecs) != len(goldenInputs()) {
		t.Fatalf("testdata has %d vectors, test defines %d", len(vecs), len(goldenInputs()))
	}
	for _, v := range vecs {
		body, err := hex.DecodeString(v.Body)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		want, err := hex.DecodeString(v.Frame)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		got := AppendFrame(nil, v.Type, v.Flags, v.Count, v.Seq, body)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding drifted\n got %x\nwant %x", v.Name, got, want)
		}
		f, n, err := DecodeFrame(want)
		if err != nil || n != len(want) {
			t.Errorf("%s: decode: n=%d err=%v", v.Name, n, err)
			continue
		}
		if f.Type != v.Type || f.Flags != v.Flags || f.Count != v.Count || f.Seq != v.Seq || !bytes.Equal(f.Body, body) {
			t.Errorf("%s: decoded %+v does not match vector", v.Name, f)
		}
	}
}
