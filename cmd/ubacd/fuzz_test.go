package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"ubac/internal/daemon"
	"ubac/internal/wire"
)

// FuzzDecodeBatchRequest throws arbitrary bytes at the POST
// /v1/flows:batch body decoder through the same 64 KiB cap the
// handler applies: it must never panic, anything it accepts is
// non-empty with every admit entry fully populated and at most
// wire.MaxFrameOps operations, and the codec, reused across inputs as
// the handlers' pool reuses it, must decode a known body identically
// right after — stale slices from the fuzzed request must not leak
// into the next one.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(`{"admit":[{"class":"voice","src":"Seattle","dst":"Chicago"}],"teardown":[7]}`)
	f.Add(`{"admit":[{"class":"voice","src":"a","dst":"b"},{"class":"voice","src":"b","dst":"a"}]}`)
	f.Add(`{"teardown":[1,2,3]}`)
	f.Add(`{"admit":[],"teardown":[]}`)
	f.Add(`{"admit":[{"class":"","src":"a","dst":"b"}]}`)
	f.Add(`{"admit":[{"class":"voice","src":"a","dst":"b","extra":1}]}`)
	f.Add(`{"teardown":[1]} trailing`)
	f.Add(`{"teardown":[` + strings.Repeat("1,", 5000) + `1]}`)
	f.Add(`{"teardown":[` + strings.Repeat("1,", 40000) + `1]}`) // past the 64 KiB cap
	f.Add(`null`)
	f.Add(`42`)
	f.Add(`not json`)
	bc := new(daemon.BatchCodec)
	req := bc.Request()
	f.Fuzz(func(t *testing.T, body string) {
		err := bc.Decode(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), maxFlowBody))
		if err == nil {
			if len(body) > maxFlowBody {
				t.Fatalf("accepted %d-byte body past the %d-byte cap", len(body), maxFlowBody)
			}
			n := len(req.Admit) + len(req.Teardown)
			if n == 0 {
				t.Fatal("accepted an empty batch")
			}
			if n > wire.MaxFrameOps {
				t.Fatalf("accepted %d operations, cap is %d", n, wire.MaxFrameOps)
			}
			for i, a := range req.Admit {
				if a.Class == "" || a.Src == "" || a.Dst == "" {
					t.Fatalf("accepted admit[%d] with empty field: %+v", i, a)
				}
			}
		}
		// Reuse integrity: the same codec must now decode a known
		// request to exactly its contents, whatever the fuzzed body did.
		const good = `{"admit":[{"class":"voice","src":"A","dst":"B"}],"teardown":[7]}`
		if err := bc.Decode(strings.NewReader(good)); err != nil {
			t.Fatalf("known-good body rejected after fuzzed decode: %v", err)
		}
		if len(req.Admit) != 1 || len(req.Teardown) != 1 ||
			req.Admit[0] != (flowRequest{Class: "voice", Src: "A", Dst: "B"}) ||
			req.Teardown[0] != 7 {
			t.Fatalf("stale state leaked through codec reuse: %+v", req)
		}
	})
}

// FuzzDecodeFlowRequest throws arbitrary bytes at the POST /v1/flows
// body decoder: it must never panic, anything it accepts has all three
// fields populated, and an accepted request re-encodes to a body the
// decoder accepts identically.
func FuzzDecodeFlowRequest(f *testing.F) {
	f.Add(`{"class":"voice","src":"Seattle","dst":"Chicago"}`)
	f.Add(`{"class":"voice","src":"a","dst":"b"} trailing`)
	f.Add(`{"class":"","src":"a","dst":"b"}`)
	f.Add(`{"class":"voice","src":"a","dst":"b","extra":1}`)
	f.Add(`{"src":"a","dst":"b"}`)
	f.Add(`null`)
	f.Add(`42`)
	f.Add(`not json`)
	// The corners of encoding/json the decoder inherits: a tenant,
	// case-folded keys, a duplicate key, an escape, trailing data, a
	// non-string value, an empty object, non-ASCII and invalid UTF-8.
	f.Add(`{"class":"voice","tenant":"t","src":"a","dst":"b"}`)
	f.Add(` { "CLASS" : "voice" , "Src" : "a" , "dst" : "b" } `)
	f.Add(`{"class":"voice","class":"video","src":"a","dst":"b"}`)
	f.Add(`{"class":"voice","src":"a","dst":"b"}`)
	f.Add(`{"class":"vo\nice","src":"a","dst":"b"}`)
	f.Add(`{"class":"voice","src":"a","dst":"b"} x`)
	f.Add(`{"class":"voice","src":"a","dst":3}`)
	f.Add(`{}`)
	f.Add(`{"class":"üñïçödé","src":"a","dst":"b"}`)
	f.Add("{\"class\":\"\xff\",\"src\":\"a\",\"dst\":\"b\"}")
	f.Fuzz(func(t *testing.T, body string) {
		req, err := daemon.DecodeFlowRequest(strings.NewReader(body))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if req.Class == "" || req.Src == "" || req.Dst == "" {
			t.Fatalf("accepted request with empty field: %+v", req)
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request failed to marshal: %v", err)
		}
		back, err := daemon.DecodeFlowRequest(strings.NewReader(string(out)))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back != req {
			t.Fatalf("round trip changed the request: %+v vs %+v", back, req)
		}
	})
}
