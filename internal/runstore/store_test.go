package runstore

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"hyperhammer/internal/profile"
	"hyperhammer/internal/runartifact"
)

func testArtifact(seed uint64) *runartifact.Artifact {
	a := runartifact.New("hyperhammer", seed, "short")
	a.Config["short"] = "true"
	a.Config["attempts"] = "2"
	a.Config["hammer-rounds"] = "150000"
	a.Config["parallel"] = "1"
	a.SimSeconds = 123.5
	a.Outcome["attempts"] = 2
	a.Outcome["successes"] = 0
	a.Profile = []profile.Entry{
		{Path: "attack.campaign", SimSeconds: 120, Activations: 500},
	}
	return a
}

func TestIngestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a := testArtifact(4)
	e, err := s.Ingest(a)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 1 {
		t.Fatalf("entry = %+v, want seq 1", e)
	}
	if e.ConfigHash != a.ConfigHash || len(e.ConfigHash) != 16 {
		t.Fatalf("entry hash %q does not match stamped artifact hash %q", e.ConfigHash, a.ConfigHash)
	}
	if !strings.HasPrefix(e.RunID, "000001-") || !strings.HasSuffix(e.RunID, e.ContentHash) {
		t.Fatalf("runID %q: want seq prefix and content-hash suffix", e.RunID)
	}
	if e.Sim["sim_seconds"] != 123.5 || e.Sim["outcome[attempts]"] != 2 {
		t.Fatalf("sim figures not indexed: %v", e.Sim)
	}
	if _, ok := e.Sim["fingerprint[profile]"]; !ok {
		t.Fatalf("section fingerprints not indexed: %v", e.Sim)
	}

	back, err := s.Load(e.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if back.ContentHash() != e.ContentHash {
		t.Fatal("stored artifact content drifted through the round trip")
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(testArtifact(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(testArtifact(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened store has %d entries, want 2", s2.Len())
	}
	e, err := s2.Ingest(testArtifact(4))
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 3 {
		t.Fatalf("seq after reopen = %d, want 3", e.Seq)
	}
}

// TestIdenticalRunsShareConfigDir: the content-addressed layout — two
// byte-identical-figure runs land in the same config-hash directory
// with equal content hashes, distinguishable only by their seq prefix.
func TestIdenticalRunsShareConfigDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	e1, err := s.Ingest(testArtifact(4))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Ingest(testArtifact(4))
	if err != nil {
		t.Fatal(err)
	}
	if e1.ConfigHash != e2.ConfigHash || e1.ContentHash != e2.ContentHash {
		t.Fatalf("identical runs disagree: %+v vs %+v", e1, e2)
	}
	files, err := filepath.Glob(filepath.Join(dir, e1.ConfigHash, "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("config dir holds %d documents (%v), want 2", len(files), err)
	}
}

// TestHistoryNeverNull: the /api/history JSON contract — entries is
// always a list, even from a nil or empty store.
func TestHistoryNeverNull(t *testing.T) {
	var nilStore *Store
	for name, h := range map[string]HistorySnapshot{
		"nil": nilStore.History(),
	} {
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "null") {
			t.Errorf("%s store history serializes null: %s", name, b)
		}
		if !strings.Contains(string(b), `"entries":[]`) {
			t.Errorf("%s store history lacks empty entries list: %s", name, b)
		}
	}
	if nilStore.Trend(TrendOptions{}) == nil {
		t.Fatal("nil store trend must be an empty report, not nil")
	}
}
