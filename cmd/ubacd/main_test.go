package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ubac/internal/telemetry"
)

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
		got, err := fileAlpha(tc.alphas)
		if tc.wantErr == "" {
			if err != nil || got != tc.want {
				t.Errorf("%s: fileAlpha = %g, %v; want %g", tc.name, got, err, tc.want)
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
		err := checkFlagLimits(tc.events, tc.grace)
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
