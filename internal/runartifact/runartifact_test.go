package runartifact

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/benchfmt"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleArtifact builds a small but fully populated artifact through
// the real profiler and registry, the way the CLIs do.
func sampleArtifact(t *testing.T, hammerSeconds int) *Artifact {
	t.Helper()
	clock := &simtime.Clock{}
	reg := metrics.New()
	reg.BindClock(clock)
	rec := trace.New(nil, 0)
	rec.BindClock(clock)
	b := profile.NewBuilder(reg)
	rec.SetNamedSink("profile", b.Consume)
	acts := reg.Counter("dram_activations_total", "")

	campaign := rec.StartSpan("attack.campaign")
	attempt := campaign.StartChild("attack.attempt")
	steer := attempt.StartChild("attack.steer")
	clock.Advance(30 * time.Second)
	steer.End()
	hammer := attempt.StartChild("attack.exploit")
	acts.Add(uint64(100 * hammerSeconds))
	clock.Advance(time.Duration(hammerSeconds) * time.Second)
	hammer.End()
	attempt.End()
	campaign.End()

	a := New("hyperhammer", 4, "short")
	a.Config["attempts"] = "1"
	a.SimSeconds = clock.Now().Seconds()
	a.Outcome["attempts"] = 1
	a.Outcome["successes"] = 1
	a.Metrics = reg.Snapshot()
	a.SetProfile(b.Snapshot())
	a.Series = []Series{{
		Name: "dram_activations_total", Kind: "counter",
		Points: []SeriesPoint{{T: 30, V: 0}, {T: a.SimSeconds, V: float64(100 * hammerSeconds)}},
	}}
	return a
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := sampleArtifact(t, 60)
	a.CreatedAt = "2026-08-06T00:00:00Z"
	path := filepath.Join(t.TempDir(), "run.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Errorf("round trip diverged:\nwrote %+v\nread  %+v", a, got)
	}
}

// TestWriteFileKeepsOriginalOnFailure: WriteFile replaces its target
// only after a complete write, so an encode failure leaves the previous
// artifact readable rather than truncated, and no temporary file
// behind.
func TestWriteFileKeepsOriginalOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	good := sampleArtifact(t, 60)
	if err := good.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	bad := sampleArtifact(t, 60)
	bad.Outcome["attempts"] = math.NaN()
	if err := bad.WriteFile(path); err == nil {
		t.Fatal("writing an unencodable artifact succeeded")
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("original artifact unreadable after a failed write: %v", err)
	}
	if got.ContentHash() != good.ContentHash() {
		t.Error("a failed write changed the artifact on disk")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory holds %d entries (%v), want only the artifact", len(entries), err)
	}
}

func TestReadRejectsNonArtifact(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"generatedAt":"x","benchmarks":[]}`)); err == nil {
		t.Error("bench document accepted as artifact")
	}
	if _, err := Read(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// TestSelfCompareIsZero is the acceptance check: an artifact diffed
// against itself (or a same-seed re-run) has zero deltas at zero
// tolerance.
func TestSelfCompareIsZero(t *testing.T) {
	a := sampleArtifact(t, 60)
	b := sampleArtifact(t, 60) // independent identical run
	d := Compare(a, b, Tolerances{})
	if d.Regressed() || d.Flagged != 0 {
		t.Fatalf("same-seed artifacts diverged:\n%s", d.Table(true))
	}
	if len(d.Deltas) == 0 {
		t.Fatal("no figures compared")
	}
	for _, row := range d.Deltas {
		if row.Delta != 0 {
			t.Errorf("nonzero delta: %+v", row)
		}
	}
	if a.Folded() != b.Folded() {
		t.Error("folded profiles differ between identical runs")
	}
}

// TestDifferentBudgetsFlagged: changing the hammer budget must flag
// the phase that spent the extra simulated time.
func TestDifferentBudgetsFlagged(t *testing.T) {
	a := sampleArtifact(t, 60)
	b := sampleArtifact(t, 120)
	d := Compare(a, b, Tolerances{})
	if !d.Regressed() {
		t.Fatal("different hammer budgets not flagged")
	}
	var exploitFlagged bool
	for _, row := range d.Deltas {
		if row.Kind == "phase" && strings.Contains(row.Key, "attack.exploit") && row.Flagged {
			exploitFlagged = true
		}
	}
	if !exploitFlagged {
		t.Errorf("exploit phase not named in:\n%s", d.Table(true))
	}
	// Generous tolerance swallows the drift.
	loose := Compare(a, b, Tolerances{SimFrac: 2, CountFrac: 2})
	if loose.Regressed() {
		t.Errorf("tolerant compare still flagged:\n%s", loose.Table(true))
	}
}

func TestWithinTolRules(t *testing.T) {
	for _, tc := range []struct {
		a, b, frac, abs float64
		want            bool
	}{
		{100, 100, 0, 0, true},
		{100, 101, 0, 0, false},
		{100, 101, 0.02, 0, true},
		{100, 101, 0, 1, true},
		{100, 103, 0.02, 1, false},
		{0, 0, 0, 0, true},
		{0, 5, 0.5, 0, false}, // growth from zero is never a fraction
		{0, 5, 0, 10, true},
	} {
		if got := withinTol(tc.a, tc.b, tc.frac, tc.abs); got != tc.want {
			t.Errorf("withinTol(%v,%v,%v,%v) = %v", tc.a, tc.b, tc.frac, tc.abs, got)
		}
	}
}

func TestCompareBench(t *testing.T) {
	parse := func(s string) *benchfmt.Output {
		out, err := benchfmt.Parse(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := parse("BenchmarkSteer-8 10 1000 ns/op\nBenchmarkGone-8 10 50 ns/op\nok x 1s\n")
	b := parse("BenchmarkSteer-8 10 1200 ns/op\nok x 1s\n")
	d := CompareBench(a, b, DefaultTolerances())
	// +20% is inside the default 30% band; the vanished benchmark is not.
	if d.Flagged != 1 {
		t.Fatalf("flagged = %d:\n%s", d.Flagged, d.Table(false))
	}
	tight := CompareBench(a, b, Tolerances{BenchFrac: 0.05})
	if tight.Flagged != 2 {
		t.Errorf("tight flagged = %d", tight.Flagged)
	}
}

// TestVerdictTableGolden pins the rendered verdict table so its format
// is a reviewed artifact, not an accident.
func TestVerdictTableGolden(t *testing.T) {
	a := sampleArtifact(t, 60)
	b := sampleArtifact(t, 120)
	d := Compare(a, b, Tolerances{})
	var buf bytes.Buffer
	buf.WriteString(d.Table(false).String())
	buf.WriteString(d.Summary())
	buf.WriteByte('\n')

	golden := filepath.Join("testdata", "verdict.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("verdict table drifted:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}
