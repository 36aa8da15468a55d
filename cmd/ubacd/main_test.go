package main

import (
	"strings"
	"testing"
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
