package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hyperhammer/internal/runartifact"
)

// TestBaselinesRegenerate re-records both committed baselines in
// process, with the command each was recorded by, and requires every
// deterministic section to equal the committed file byte for byte:
// sim seconds, outcome, metrics, profile, heatmap, census, alerts
// (rule, expr, t and value of each) and forensics. Only the host-side
// fields (createdAt, toolVersion, configHash, plan) may differ.
func TestBaselinesRegenerate(t *testing.T) {
	for _, tc := range []struct {
		file     string
		attempts string
		status   int // 1: two attempts do not escape
	}{
		{"short-seed4.json", "2", 1},
		{"short-escape.json", "250", 0},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := runartifact.ReadFile(filepath.Join("..", "..", "testdata", "baselines", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.json")
			discardStdout(t)
			if status := cmdRun([]string{"-short", "-attempts", tc.attempts, "-artifact", path}); status != tc.status {
				t.Errorf("hh run exit status %d, want %d", status, tc.status)
			}
			got, err := runartifact.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []struct {
				name      string
				got, want any
			}{
				{"seed", got.Seed, want.Seed},
				{"scale", got.Scale, want.Scale},
				{"config", got.Config, want.Config},
				{"simSeconds", got.SimSeconds, want.SimSeconds},
				{"outcome", got.Outcome, want.Outcome},
				{"metrics", got.Metrics, want.Metrics},
				{"profile", got.Profile, want.Profile},
				{"heatmap", got.Heatmap, want.Heatmap},
				{"census", got.Census, want.Census},
				{"alerts", got.Alerts, want.Alerts},
				{"forensics", got.Forensics, want.Forensics},
				{"ledger", got.Ledger, want.Ledger},
			} {
				g, err := json.Marshal(s.got)
				if err != nil {
					t.Fatal(err)
				}
				w, err := json.Marshal(s.want)
				if err != nil {
					t.Fatal(err)
				}
				if string(g) != string(w) {
					t.Errorf("%s section differs from the committed baseline", s.name)
				}
			}
		})
	}
}

// discardStdout points os.Stdout at the null device for the rest of
// the test; the campaign prints its report there.
func discardStdout(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = stdout
		null.Close()
	})
}
