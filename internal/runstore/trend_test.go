package runstore

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// entry builds a minimal artifact-kind index entry for trend tests.
func entry(seq int, cfg string, sim map[string]float64) IndexEntry {
	return IndexEntry{
		Seq: seq, RunID: runIDFor(seq),
		ConfigHash: cfg, Tool: "hyperhammer", Seed: 4, Scale: "short",
		Sim: sim,
	}
}

func runIDFor(seq int) string {
	return strings.Repeat("0", 5) + string(rune('0'+seq)) + "-cafe"
}

func TestTrendIdenticalRunsNoDrift(t *testing.T) {
	sim := map[string]float64{"sim_seconds": 123.5, "outcome[successes]": 0}
	r := Build([]IndexEntry{
		entry(1, "aaaa", sim), entry(2, "aaaa", sim), entry(3, "aaaa", sim),
	}, TrendOptions{})
	if r.Regressed() || r.Flagged != 0 {
		t.Fatalf("identical runs flagged: %+v", r)
	}
	if len(r.Groups) != 1 || r.Groups[0].SimDrift {
		t.Fatalf("groups = %+v", r.Groups)
	}
	g := r.Groups[0]
	if g.ConfigHashes != 1 || len(g.Runs) != 3 {
		t.Fatalf("group roster wrong: %+v", g)
	}
	for _, f := range g.Figures {
		if f.Min != f.Last || f.Median != f.Last {
			t.Errorf("flat figure %s has moving stats: %+v", f.Name, f)
		}
	}
}

// TestTrendConfigDriftAttribution: the ISSUE's headline scenario — two
// identical runs, then a third with a changed knob (new config hash)
// and changed figures. The third run is attributed as first-regressed
// and the drift is classified "config", not "determinism".
func TestTrendConfigDriftAttribution(t *testing.T) {
	sim := map[string]float64{"sim_seconds": 123.5}
	perturbed := map[string]float64{"sim_seconds": 400.25}
	r := Build([]IndexEntry{
		entry(1, "aaaa", sim), entry(2, "aaaa", sim), entry(3, "bbbb", perturbed),
	}, TrendOptions{})
	if !r.Regressed() {
		t.Fatal("perturbed third run not flagged")
	}
	g := r.Groups[0]
	if !g.SimDrift || g.DriftKind != DriftConfig {
		t.Fatalf("drift kind = %q, want %q (%+v)", g.DriftKind, DriftConfig, g)
	}
	if g.FirstDriftSeq != 3 || g.FirstDriftRun != runIDFor(3) {
		t.Fatalf("drift attributed to seq %d run %q, want the third run", g.FirstDriftSeq, g.FirstDriftRun)
	}
	if g.ConfigHashes != 2 {
		t.Fatalf("config hashes = %d, want 2", g.ConfigHashes)
	}
	if len(g.DriftFigures) != 1 || g.DriftFigures[0] != "sim_seconds" {
		t.Fatalf("drift figures = %v", g.DriftFigures)
	}
}

// TestTrendDeterminismDrift: figures moved but the config hash did not
// — same claimed inputs, different results. That is a determinism
// regression.
func TestTrendDeterminismDrift(t *testing.T) {
	r := Build([]IndexEntry{
		entry(1, "aaaa", map[string]float64{"fingerprint[counters]": 10}),
		entry(2, "aaaa", map[string]float64{"fingerprint[counters]": 11}),
	}, TrendOptions{})
	g := r.Groups[0]
	if !g.SimDrift || g.DriftKind != DriftDeterminism {
		t.Fatalf("drift kind = %q, want %q", g.DriftKind, DriftDeterminism)
	}
	if g.FirstDriftSeq != 2 {
		t.Fatalf("first drift seq = %d, want 2", g.FirstDriftSeq)
	}
}

// TestTrendFigurePresenceChangeIsDrift: a figure appearing or vanishing
// between same-lineage runs is a behavior change, same as a value move.
func TestTrendFigurePresenceChangeIsDrift(t *testing.T) {
	r := Build([]IndexEntry{
		entry(1, "aaaa", map[string]float64{"sim_seconds": 1, "outcome[bits]": 5}),
		entry(2, "aaaa", map[string]float64{"sim_seconds": 1}),
	}, TrendOptions{})
	if !r.Groups[0].SimDrift {
		t.Fatal("vanished figure not reported as drift")
	}
}

// TestHostToleranceWalk: host figures have no tolerance to walk. A 25x
// wall-clock rise and a speedup collapse are listed as trajectories
// with their stats and never regress the report.
func TestHostToleranceWalk(t *testing.T) {
	mk := func(seq int, wall, speedup float64) IndexEntry {
		e := entry(seq, "aaaa", map[string]float64{"sim_seconds": 1})
		e.Host = map[string]float64{"wall_seconds": wall, "actual_speedup": speedup}
		return e
	}
	r := Build([]IndexEntry{mk(1, 1.0, 3.0), mk(2, 1.1, 2.0), mk(3, 25, 1.0)}, TrendOptions{})
	if r.Regressed() || r.Flagged != 0 {
		t.Fatalf("host rise gated the report: flagged = %d", r.Flagged)
	}
	found := 0
	for _, f := range r.Groups[0].Figures {
		switch f.Name {
		case "wall_seconds":
			found++
			if len(f.Points) != 3 || f.Min != 1.0 || f.Median != 1.1 || f.Last != 25 {
				t.Errorf("wall_seconds trajectory lost: %+v", f)
			}
		case "actual_speedup":
			found++
			if len(f.Points) != 3 || f.Last != 1.0 {
				t.Errorf("actual_speedup trajectory lost: %+v", f)
			}
		default:
			continue
		}
		if f.Kind != "host" || f.Regressed || f.FirstRegressedSeq != 0 || f.FirstRegressedRun != "" {
			t.Errorf("host figure %s regressed: %+v", f.Name, f)
		}
	}
	if found != 2 {
		t.Fatalf("host figures listed: %d, want 2", found)
	}
}

func TestTrendLastNAndSince(t *testing.T) {
	sim := map[string]float64{"sim_seconds": 1}
	perturbed := map[string]float64{"sim_seconds": 2}
	entries := []IndexEntry{entry(1, "aaaa", perturbed), entry(2, "aaaa", sim), entry(3, "aaaa", sim)}
	opts := TrendOptions{LastN: 2}
	if r := Build(entries, opts); r.Regressed() {
		t.Fatal("-last 2 must drop the old divergent run")
	}
	if r := Build(entries, TrendOptions{}); !r.Regressed() {
		t.Fatal("full history must still see the divergence")
	}
}

// TestReportJSONNeverNull: the /api/trend contract — groups and nested
// lists are always lists.
func TestReportJSONNeverNull(t *testing.T) {
	for name, r := range map[string]*Report{
		"empty": Build(nil, TrendOptions{}),
		"one": Build([]IndexEntry{
			entry(1, "aaaa", map[string]float64{"sim_seconds": 1}),
		}, TrendOptions{}),
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte("null")) {
			t.Errorf("%s report serializes null: %s", name, b)
		}
	}
}

// TestDriftDetail: a detected drift is attributed figure-by-figure by
// diffing the stored artifacts on either side of the divergence.
func TestDriftDetail(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(testArtifact(4)); err != nil {
		t.Fatal(err)
	}
	b := testArtifact(4)
	b.Config["hammer-rounds"] = "400000"
	b.SimSeconds = 300
	b.Outcome["successes"] = 1
	if _, err := s.Ingest(b); err != nil {
		t.Fatal(err)
	}

	r := s.Trend(TrendOptions{})
	g := &r.Groups[0]
	if !g.SimDrift || g.DriftKind != DriftConfig {
		t.Fatalf("store trend = %+v", g)
	}
	deltas, err := s.DriftDetail(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range deltas {
		names[d.Key] = true
	}
	if !names["sim_seconds"] {
		t.Fatalf("drift detail missed sim_seconds: %v", names)
	}
}

// TestRenderSmoke: the text renderers never error and carry the
// attribution line.
func TestRenderSmoke(t *testing.T) {
	sim := map[string]float64{"sim_seconds": 123.5}
	r := Build([]IndexEntry{
		entry(1, "aaaa", sim), entry(2, "aaaa", sim),
		entry(3, "bbbb", map[string]float64{"sim_seconds": 400}),
	}, TrendOptions{})
	var buf bytes.Buffer
	if err := RenderReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DRIFT (config)", runIDFor(3), "REGRESSED", "sim_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("report rendering lacks %q:\n%s", want, out)
		}
	}

	buf.Reset()
	h := HistorySnapshot{Version: Version, Dir: "store", Entries: []IndexEntry{
		entry(1, "aaaa", sim),
	}}
	if err := RenderHistory(&buf, h); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aaaa") {
		t.Errorf("history rendering lacks the config hash:\n%s", buf.String())
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{1, 1, 1}); got != "___" {
		t.Errorf("flat sparkline = %q", got)
	}
	got := sparkline([]float64{0, 5, 10})
	if len(got) != 3 || got[0] != '_' || got[2] != '@' {
		t.Errorf("ramp sparkline = %q", got)
	}
	if got := sparkline(make([]float64, sparkWidth+2)); len(got) != sparkWidth {
		t.Errorf("width cap ignored: %q", got)
	}
}
