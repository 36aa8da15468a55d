package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ubac/internal/daemon"
	"ubac/internal/telemetry"
)

// TestMain lets a test run this binary as ubacd: with UBACD_TEST_MAIN
// set, the process is ubacd's main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("UBACD_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// parseFlags parses args as ubacd's command line.
func parseFlags(args ...string) (daemon.Config, error) {
	fs := flag.NewFlagSet("ubacd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return daemon.ParseFlags(fs, args)
}

// writeConfig writes a -config file into a fresh directory.
func writeConfig(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ubacd.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// ubacd serves one class, so a configuration file whose alphas name any
// other is refused with the served class in the message, not booted at
// the -alpha default.
func TestFileAlphaRefusesUnservedClass(t *testing.T) {
	cases := []struct {
		name    string
		alphas  map[string]float64
		want    float64
		wantErr string
	}{
		{"served", map[string]float64{"voice": 0.2}, 0.2, ""},
		{"misspelt", map[string]float64{"Voice": 0.2}, 0, `["Voice"]; ubacd serves only class "voice"`},
		{"extra class", map[string]float64{"voice": 0.3, "video": 0.2}, 0, `["video"]`},
		{"two unserved", map[string]float64{"video": 0.2, "data": 0.1}, 0, `["data" "video"]`},
	}
	for _, tc := range cases {
		var alphas []string
		for class, a := range tc.alphas {
			alphas = append(alphas, fmt.Sprintf("%q:%g", class, a))
		}
		path := writeConfig(t, `{"topology":"mci","alphas":{`+strings.Join(alphas, ",")+`}}`)
		cfg, err := parseFlags("-config", path)
		got := cfg.Alphas["voice"]
		if tc.wantErr == "" {
			if err != nil || got != tc.want {
				t.Errorf("%s: alpha = %g, %v; want %g", tc.name, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one containing %s", tc.name, err, tc.wantErr)
		}
	}
}

// A bad -events or -shutdown-grace is refused naming the flag and the
// value as given, not the configuration file's key.
func TestFlagLimitsNameTheFlag(t *testing.T) {
	cases := []struct {
		events int
		grace  time.Duration
		want   string
	}{
		{4096, 10 * time.Second, ""},
		{1, 0, ""},
		{telemetry.MaxRingEvents, time.Duration(1<<63 - 1), ""},
		{4096, -time.Second, "-shutdown-grace -1s is negative"},
		{4096, -1500 * time.Millisecond, "-shutdown-grace -1.5s is negative"},
		{0, time.Second, "-events 0 outside [1, "},
		{telemetry.MaxRingEvents + 1, time.Second, fmt.Sprintf("-events %d outside", telemetry.MaxRingEvents+1)},
	}
	for _, tc := range cases {
		_, err := parseFlags("-events", strconv.Itoa(tc.events), "-shutdown-grace", tc.grace.String())
		if tc.want == "" {
			if err != nil {
				t.Errorf("events=%d grace=%s: %v", tc.events, tc.grace, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "_") {
			t.Errorf("events=%d grace=%s: error %v, want one containing %q and no file key", tc.events, tc.grace, err, tc.want)
		}
	}
}

// runUbacd runs ubacd in a child process on args, waits for its boot
// banner, stops it with SIGTERM and returns what it logged; a child
// that exits before the banner, or fails to drain, fails the test.
func runUbacd(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UBACD_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	lines := bufio.NewScanner(stderr)
	for lines.Scan() {
		logged.WriteString(lines.Text() + "\n")
		if strings.Contains(lines.Text(), ", listening on ") {
			break
		}
	}
	if !strings.Contains(logged.String(), ", listening on ") {
		cmd.Wait()
		t.Fatalf("ubacd %s did not boot:\n%s", strings.Join(args, " "), logged.String())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stderr)
	logged.Write(rest)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("ubacd %s: %v after SIGTERM:\n%s", strings.Join(args, " "), err, logged.String())
	}
	return logged.String()
}

// A flag given on the command line completes a -config file or
// overrides it before anything is checked: a cluster file without
// wire_listen boots with -wire, and -fsync async replaces a file's
// "off" beside its data_dir. Each file alone is refused.
func TestFlagsCompleteConfigFile(t *testing.T) {
	dir := t.TempDir()
	const base = `{"topology":"nsfnet","alphas":{"voice":0.3},"listen":"127.0.0.1:0",`
	cluster := writeConfig(t, base+`"cluster":"id=0,members=0@127.0.0.1:1","data_dir":"`+filepath.Join(dir, "member")+`"}`)
	if _, err := parseFlags("-config", cluster); err == nil || !strings.Contains(err.Error(), "cluster requires wire_listen") {
		t.Errorf("cluster file without wire_listen: %v", err)
	}
	out := runUbacd(t, "-config", cluster, "-wire", "127.0.0.1:0")
	if !strings.Contains(out, "ubacd: cluster node 0 of 1 members") || !strings.Contains(out, "ubacd: wire transport listening on 127.0.0.1:") {
		t.Errorf("-wire did not complete the cluster file:\n%s", out)
	}

	durable := filepath.Join(dir, "durable")
	off := writeConfig(t, base+`"fsync":"off","data_dir":"`+durable+`"}`)
	if _, err := parseFlags("-config", off); err == nil || !strings.Contains(err.Error(), "fsync off with data_dir") {
		t.Errorf("fsync off beside data_dir: %v", err)
	}
	out = runUbacd(t, "-config", off, "-fsync", "async")
	if !strings.Contains(out, "ubacd: durable in "+durable+" (fsync=async, epoch 1)") {
		t.Errorf("-fsync async did not override the file's off:\n%s", out)
	}
}
