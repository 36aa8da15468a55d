// The daemon's -config file format: daemon.ParseFile decodes a
// document, and daemon.Config.Check judges it when no flag overrides
// anything, as ubacd does.
package config_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ubac/internal/daemon"
)

// checkFile decodes doc and checks it as the whole configuration.
func checkFile(doc []byte) (*daemon.Config, error) {
	c, err := daemon.ParseFile(doc)
	if err != nil {
		return nil, err
	}
	return c, c.Check(nil)
}

func TestParseFileMinimalAppliesDefaults(t *testing.T) {
	f, err := daemon.ParseFile([]byte(`{"topology":"mci","alphas":{"voice":0.4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Topology != "mci" || f.Alphas["voice"] != 0.4 {
		t.Fatalf("parsed %+v", f)
	}
	if f.Listen != daemon.DefaultListen || f.Events != daemon.DefaultEvents ||
		f.ShutdownGraceSeconds != daemon.DefaultShutdownGraceSeconds {
		t.Fatalf("defaults not applied: %+v", f)
	}
}

func TestParseFileExplicitValuesKept(t *testing.T) {
	doc := `{
		"topology": "ring:8",
		"alphas": {"voice": 0.3, "video": 0.2},
		"listen": "127.0.0.1:9090",
		"events": 128,
		"shutdown_grace_seconds": 2.5
	}`
	f, err := daemon.ParseFile([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if f.Topology != "ring:8" || len(f.Alphas) != 2 || f.Listen != "127.0.0.1:9090" ||
		f.Events != 128 || f.ShutdownGraceSeconds != 2.5 {
		t.Fatalf("parsed %+v", f)
	}
}

func TestParseFileRejections(t *testing.T) {
	cases := []struct{ name, doc, wantErr string }{
		{"empty", ``, "config:"},
		{"not json", `nope`, "config:"},
		{"unknown field", `{"topology":"mci","alphas":{"voice":0.4},"bogus":1}`, "bogus"},
		{"trailing data", `{"topology":"mci","alphas":{"voice":0.4}}{}`, "trailing data"},
		{"missing topology", `{"alphas":{"voice":0.4}}`, "missing topology"},
		{"missing alphas", `{"topology":"mci"}`, "missing alphas"},
		{"empty alphas", `{"topology":"mci","alphas":{}}`, "missing alphas"},
		{"empty class name", `{"topology":"mci","alphas":{"":0.4}}`, "empty class name"},
		{"alpha zero", `{"topology":"mci","alphas":{"voice":0}}`, "out of (0,1)"},
		{"alpha one", `{"topology":"mci","alphas":{"voice":1}}`, "out of (0,1)"},
		{"alpha negative", `{"topology":"mci","alphas":{"voice":-0.1}}`, "out of (0,1)"},
		{"negative events", `{"topology":"mci","alphas":{"voice":0.4},"events":-1}`, "negative events"},
		{"solver workers removed", `{"topology":"mci","alphas":{"voice":0.4},"solver_workers":4}`, `unknown field "solver_workers"`},
		{"route workers removed", `{"topology":"mci","alphas":{"voice":0.4},"route_workers":4}`, `unknown field "route_workers"`},
		{"negative grace", `{"topology":"mci","alphas":{"voice":0.4},"shutdown_grace_seconds":-1}`, "shutdown_grace_seconds"},
		{"events above the cap", `{"topology":"mci","alphas":{"voice":0.4},"events":1048577}`, "events capacity 1048577"},
		{"grace overflows a duration", `{"topology":"mci","alphas":{"voice":0.4},"shutdown_grace_seconds":1e300}`, "shutdown_grace_seconds"},
	}
	for _, tc := range cases {
		if _, err := checkFile([]byte(tc.doc)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.doc)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ubacd.json")
	if err := os.WriteFile(path, []byte(`{"topology":"line:4","alphas":{"voice":0.25}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := daemon.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Topology != "line:4" || f.Alphas["voice"] != 0.25 {
		t.Fatalf("loaded %+v", f)
	}
	if _, err := daemon.LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFileClusterValidation(t *testing.T) {
	base := `{"topology":"mci","alphas":{"voice":0.3},`
	if _, err := checkFile([]byte(base + `"cluster":"id=0,members=0@h:9444","wire_listen":":9444","data_dir":"/tmp/x"}`)); err != nil {
		t.Errorf("valid cluster file rejected: %v", err)
	}
	if _, err := checkFile([]byte(base + `"cluster":"id=0,members=0@h:9444","data_dir":"/tmp/x"}`)); err == nil || !strings.Contains(err.Error(), "wire_listen") {
		t.Errorf("missing wire_listen: %v", err)
	}
	if _, err := checkFile([]byte(base + `"cluster":"id=0,members=0@h:9444","wire_listen":":9444"}`)); err == nil || !strings.Contains(err.Error(), "data_dir") {
		t.Errorf("missing data_dir: %v", err)
	}
	if _, err := checkFile([]byte(base + `"cluster":"id=0","wire_listen":":9444","data_dir":"/tmp/x"}`)); err == nil || !strings.Contains(err.Error(), "missing members") {
		t.Errorf("bad spec: %v", err)
	}
}

func TestParseFileWithPolicy(t *testing.T) {
	f, err := checkFile([]byte(`{
		"topology": "mci", "alphas": {"voice": 0.4},
		"policy": {"kind": "token_bucket", "rate": 100, "burst": 500}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Policy == nil || f.Policy.Kind != "token_bucket" {
		t.Fatalf("policy not parsed: %+v", f.Policy)
	}
	_, err = checkFile([]byte(`{
		"topology": "mci", "alphas": {"voice": 0.4},
		"policy": {"kind": "token_bucket"}
	}`))
	if err == nil || !strings.Contains(err.Error(), "rate") {
		t.Fatalf("invalid embedded policy accepted: %v", err)
	}
}

// FuzzParseFile throws arbitrary bytes at the daemon configuration
// parser: it must never panic, and any document it accepts must survive
// a marshal → parse round trip unchanged (defaults are applied exactly
// once — re-parsing the marshaled form is a fixed point).
func FuzzParseFile(f *testing.F) {
	f.Add(`{"topology":"mci","alphas":{"voice":0.4}}`)
	f.Add(`{"topology":"ring:8","alphas":{"voice":0.3,"video":0.2},"listen":":9090","events":128,"shutdown_grace_seconds":2.5}`)
	f.Add(`{"topology":"","alphas":{"voice":0.4}}`)
	f.Add(`{"topology":"mci","alphas":{"voice":1e309}}`)
	f.Add(`{"topology":"mci","alphas":{"voice":0.4}}{}`)
	f.Add(`{"topology":"mci","alphas":{"voice":0.4},"unknown":true}`)
	f.Add(`[]`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, doc string) {
		parsed, err := checkFile([]byte(doc))
		if err != nil {
			return // rejection is fine; panics are not
		}
		out, err := json.Marshal(parsed)
		if err != nil {
			t.Fatalf("accepted config failed to marshal: %v", err)
		}
		back, err := checkFile(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !reflect.DeepEqual(parsed, back) {
			t.Fatalf("round trip changed the config: %+v vs %+v", parsed, back)
		}
	})
}
