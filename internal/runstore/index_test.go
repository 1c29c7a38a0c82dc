package runstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// ingestN opens a store in dir, ingests n runs and closes it, returning
// the index path.
func ingestN(t *testing.T, dir string, n int) string {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Ingest(testArtifact(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, IndexFile)
}

// TestOpenDropsTornTail: a crash mid-append leaves the index's last
// line cut short, without its newline. Open drops that line and reports
// it, and cuts the index back to the last good line, so the next Ingest
// starts a fresh line instead of splicing onto the torn bytes.
func TestOpenDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := ingestN(t, dir, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if err := os.WriteFile(path, data[:last+(len(data)-last)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open refused a torn tail: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", s.Len())
	}
	if s.Repaired() == nil {
		t.Error("dropping the torn line went unreported")
	}
	if _, err := s.Ingest(testArtifact(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatalf("reopen after ingest: %v", err)
	}
	defer s.Close()
	if s.Len() != 3 || s.Repaired() != nil {
		t.Fatalf("reopened %d entries (repaired: %v), want 3 and a whole index", s.Len(), s.Repaired())
	}
}

// TestKindRowsStillLoad: index rows written when the index still
// carried a document kind hold "kind":"artifact". A store of such rows
// opens, loads every run and trends clean.
func TestKindRowsStillLoad(t *testing.T) {
	dir := t.TempDir()
	path := ingestN(t, dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []byte
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var row map[string]any
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		row["kind"] = "artifact"
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(append(rows, b...), '\n')
	}
	if err := os.WriteFile(path, rows, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, e := range s.Entries() {
		if _, err := s.Load(e.RunID); err != nil {
			t.Errorf("load %s: %v", e.RunID, err)
		}
	}
	if r := s.Trend(TrendOptions{}); r.Runs != 2 || r.Regressed() {
		t.Errorf("trend over kind rows: %d runs, %d flagged; want 2 runs, none flagged", r.Runs, r.Flagged)
	}
}

// TestOpenRejectsMidFileGarbage: only a torn final line is a crash
// artifact; a bad line with good lines after it is corruption, and Open
// refuses the store.
func TestOpenRejectsMidFileGarbage(t *testing.T) {
	dir := t.TempDir()
	path := ingestN(t, dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(data, '\n') + 1
	corrupt := append(append(append([]byte{}, data[:first]...), "{garbage\n"...), data[first:]...)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir); err == nil {
		s.Close()
		t.Fatal("Open accepted an index with garbage mid-file")
	}
}

// FuzzOpenIndex: Open never panics on arbitrary index bytes. It either
// refuses the store or loads it, and a loaded store reopens to the same
// entries.
func FuzzOpenIndex(f *testing.F) {
	entry := `{"seq":1,"runID":"000001-x","kind":"artifact","configHash":"c","tool":"t","seed":4}`
	f.Add([]byte{})
	f.Add([]byte(entry + "\n"))
	f.Add([]byte(entry + "\n" + entry[:30]))
	f.Add([]byte("{garbage\n" + entry + "\n"))
	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, IndexFile), index, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		n := s.Len()
		s.Close()
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("a loaded store failed to reopen: %v", err)
		}
		defer s.Close()
		if s.Len() != n {
			t.Fatalf("reopened %d entries, the first open loaded %d", s.Len(), n)
		}
	})
}
