package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFileMinimalAppliesDefaults(t *testing.T) {
	f, err := ParseFile([]byte(`{"topology":"mci","alphas":{"voice":0.4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Topology != "mci" || f.Alphas["voice"] != 0.4 {
		t.Fatalf("parsed %+v", f)
	}
	if f.Listen != DefaultListen || f.Events != DefaultEvents ||
		f.ShutdownGraceSeconds != DefaultShutdownGraceSeconds {
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
	f, err := ParseFile([]byte(doc))
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
		if _, err := ParseFile([]byte(tc.doc)); err == nil {
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
	f, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Topology != "line:4" || f.Alphas["voice"] != 0.25 {
		t.Fatalf("loaded %+v", f)
	}
	if _, err := LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
