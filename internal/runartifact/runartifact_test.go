package runartifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestReadSkipsRetiredSeriesSection: artifacts written while hh run
// kept a "series" extract of the live plane's samples still load, and
// the section, which the content hash always left out, changes nothing
// that is read.
func TestReadSkipsRetiredSeriesSection(t *testing.T) {
	a := sampleArtifact(t, 60)
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	doc["series"] = []any{map[string]any{
		"name": "dram_activations_total", "kind": "counter",
		"points": []any{map[string]any{"t": 30, "v": 0}, map[string]any{"t": 60, "v": 6000}},
	}}
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("artifact with a series section: %v", err)
	}
	if got.ContentHash() != a.ContentHash() {
		t.Error("a series section moved the content hash")
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

// TestWriteFileAtomicKeepsTarget: a write func that fails part-way
// leaves the previous file at the target byte-identical and no
// temporary file behind, for any run file, not just artifacts.
func TestWriteFileAtomicKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.prom")
	if err := os.WriteFile(path, []byte("previous\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half a docu")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write func's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "previous\n" {
		t.Errorf("target after a failed write = %q, %v; want the previous content", got, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory holds %d entries (%v), want only the target", len(entries), err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "next\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "next\n" {
		t.Errorf("target after a good write = %q", got)
	}
}

func TestReadRejectsNonArtifact(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"generatedAt":"x","benchmarks":[]}`)); err == nil {
		t.Error("a document with no version accepted as artifact")
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
	d := Compare(a, b)
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
	d := Compare(a, b)
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

	// No simulated figure has slack: the headline sim time moved by
	// one part in 10^9, and nothing else, is the one flagged row.
	c := sampleArtifact(t, 60)
	c.SimSeconds *= 1 + 1e-9
	d = Compare(a, c)
	if d.Flagged != 1 {
		t.Fatalf("flagged = %d, want 1:\n%s", d.Flagged, d.Table(true))
	}
	for _, row := range d.Deltas {
		if row.Flagged != (row.Kind == "run" && row.Key == "sim_seconds") {
			t.Errorf("row %+v: flagged = %v", row, row.Flagged)
		}
	}
}

// TestSimFigureFlagRule: a simulated figure is flagged exactly when
// b−a is not zero, NaN included, so identical infinities (whose
// difference is NaN) flag as well.
func TestSimFigureFlagRule(t *testing.T) {
	for _, tc := range []struct {
		a, b float64
		want bool
	}{
		{100, 100, false},
		{0, 0, false},
		{100, 101, true},
		{100, 100 * (1 + 1e-12), true},
		{0, 5, true},
		{math.NaN(), math.NaN(), true},
		{1, math.NaN(), true},
		{math.Inf(1), math.Inf(1), true},
	} {
		a, b := sampleArtifact(t, 60), sampleArtifact(t, 60)
		a.SimSeconds, b.SimSeconds = tc.a, tc.b
		d := Compare(a, b)
		if got := d.Flagged == 1; got != tc.want || d.Flagged > 1 {
			t.Errorf("sim_seconds %v -> %v: flagged = %d, want flagged %v", tc.a, tc.b, d.Flagged, tc.want)
		}
	}
}

// TestVerdictTableGolden pins the rendered verdict table so its format
// is a reviewed artifact, not an accident.
func TestVerdictTableGolden(t *testing.T) {
	a := sampleArtifact(t, 60)
	b := sampleArtifact(t, 120)
	d := Compare(a, b)
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
