package main

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"ubac/internal/wire"
)

func TestBatchAdmitTeardownLifecycle(t *testing.T) {
	ts, _ := testDaemon(t)
	resp, body := post(t, ts, "/v1/flows:batch", batchRequest{
		Admit: []flowRequest{
			{Class: "voice", Src: "Seattle", Dst: "Princeton"},
			{Class: "voice", Src: "Princeton", Dst: "Seattle"},
			{Class: "voice", Src: "Atlantis", Dst: "Seattle"}, // unknown router
			{Class: "nope", Src: "Seattle", Dst: "Princeton"}, // unknown class
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch admit: %d %v", resp.StatusCode, body)
	}
	admits := body["admit"].([]any)
	if len(admits) != 4 {
		t.Fatalf("admit results: %v", admits)
	}
	var ids []uint64
	for i := 0; i < 2; i++ {
		r := admits[i].(map[string]any)
		if r["error"] != nil {
			t.Fatalf("admit %d failed: %v", i, r)
		}
		ids = append(ids, uint64(r["id"].(float64)))
	}
	if r := admits[2].(map[string]any); r["reason"] != "unknown_router" {
		t.Errorf("unknown router: %v", r)
	}
	if r := admits[3].(map[string]any); r["reason"] != "unknown_class" {
		t.Errorf("unknown class: %v", r)
	}
	if ids[0] == ids[1] {
		t.Errorf("duplicate flow IDs: %v", ids)
	}

	_, stats := get(t, ts, "/v1/stats")
	if stats["Active"].(float64) != 2 {
		t.Errorf("active = %v", stats["Active"])
	}

	// Tear both down in one batch, one of them twice plus a bogus ID.
	resp, body = post(t, ts, "/v1/flows:batch", map[string]any{
		"teardown": []uint64{ids[0], ids[1], ids[0], 424242},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch teardown: %d %v", resp.StatusCode, body)
	}
	tears := body["teardown"].([]any)
	if len(tears) != 4 {
		t.Fatalf("teardown results: %v", tears)
	}
	for i := 0; i < 2; i++ {
		if r := tears[i].(map[string]any); r["ok"] != true {
			t.Errorf("teardown %d: %v", i, r)
		}
	}
	for i := 2; i < 4; i++ {
		if r := tears[i].(map[string]any); r["reason"] != "unknown_flow" {
			t.Errorf("teardown %d: %v", i, r)
		}
	}
	_, stats = get(t, ts, "/v1/stats")
	if stats["Active"].(float64) != 0 {
		t.Errorf("active after teardown = %v", stats["Active"])
	}
}

// TestBatchSingletonInterop admits via the batch endpoint and tears
// down via the singleton DELETE (and vice versa): flow IDs are one
// namespace regardless of which endpoint issued them.
func TestBatchSingletonInterop(t *testing.T) {
	ts, _ := testDaemon(t)
	_, body := post(t, ts, "/v1/flows:batch", batchRequest{
		Admit: []flowRequest{{Class: "voice", Src: "Seattle", Dst: "Princeton"}},
	})
	id := uint64(body["admit"].([]any)[0].(map[string]any)["id"].(float64))
	if resp := del(t, ts, "/v1/flows/"+strconv.FormatUint(id, 10)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("singleton teardown of batch-admitted flow: %d", resp.StatusCode)
	}

	resp, single := post(t, ts, "/v1/flows", flowRequest{Class: "voice", Src: "Seattle", Dst: "Princeton"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("singleton admit: %d", resp.StatusCode)
	}
	sid := uint64(single["id"].(float64))
	_, body = post(t, ts, "/v1/flows:batch", map[string]any{"teardown": []uint64{sid}})
	if r := body["teardown"].([]any)[0].(map[string]any); r["ok"] != true {
		t.Fatalf("batch teardown of singleton-admitted flow: %v", r)
	}
}

// TestBatchCodecReuseForgetsLastRequest decodes through one codec what
// the pool hands out in turn: a full request, then bodies that leave
// out a field or an element value. Nothing the first request carried
// may fill those gaps.
func TestBatchCodecReuseForgetsLastRequest(t *testing.T) {
	bc := &batchCodec{}
	full := `{"admit":[{"class":"voice","tenant":"t","src":"Seattle","dst":"Princeton"},{"class":"voice","src":"Princeton","dst":"Seattle"}],"teardown":[7,8]}`
	for _, body := range []string{
		`{"admit":[{"class":"voice","src":"Seattle"}]}`,
		`{"admit":[{"class":"voice","src":"a","dst":"b"},{"src":"b","dst":"a"}]}`,
		`{"admit":[{"class":"voice","src":"a","dst":"b"},{}]}`,
	} {
		if err := bc.decode(strings.NewReader(full)); err != nil {
			t.Fatal(err)
		}
		if err := bc.decode(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted after a full request: %+v", body, bc.req)
		}
	}
	if err := bc.decode(strings.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	if err := bc.decode(strings.NewReader(`{"admit":[{"class":"voice","src":"a","dst":"b"}],"teardown":[null]}`)); err != nil {
		t.Fatal(err)
	}
	if bc.req.Admit[0].Tenant != "" || bc.req.Teardown[0] != 0 {
		t.Errorf("previous request leaked into %+v", bc.req)
	}
}

func TestBatchRejections(t *testing.T) {
	ts, _ := testDaemon(t)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"empty object", `{}`, http.StatusBadRequest},
		{"empty arrays", `{"admit":[],"teardown":[]}`, http.StatusBadRequest},
		{"not json", `not json`, http.StatusBadRequest},
		{"trailing data", `{"teardown":[1]} extra`, http.StatusBadRequest},
		{"missing fields", `{"admit":[{"class":"voice","src":"Seattle"}]}`, http.StatusBadRequest},
		{"huge body", `{"teardown":[` + strings.Repeat("1,", 40000) + `1]}`, http.StatusRequestEntityTooLarge},
		{"too many ops", `{"teardown":[` + strings.Repeat("1,", wire.MaxFrameOps) + `1]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/flows:batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/flows:batch"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET: status %d, want 405", resp.StatusCode)
		}
	}
}
