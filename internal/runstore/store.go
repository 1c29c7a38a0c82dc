// Package runstore is the run-history plane: a content-addressed,
// config-hash-indexed local store of versioned run artifacts, plus the
// cross-run trend engine that folds the stored history into per-figure
// time series (see trend.go).
//
// Layout on disk, rooted at the directory handed to Open:
//
//	store/
//	├── index.jsonl            append-only index, one IndexEntry per line
//	├── <configHash>/          one directory per deterministic config
//	│   ├── 000001-<content>.json   the full run artifact
//	│   └── 000002-<content>.json
//	└── <otherHash>/...
//
// The index is the compact cross-run view: headline outcome figures,
// per-section figure fingerprints, and the host-cost summary —
// everything the trend engine needs without reloading the full
// artifacts. Artifacts themselves are kept whole so a detected
// drift can be attributed figure-by-figure with the hh diff machinery
// (Store.DriftDetail).
//
// Because the simulation is seed-deterministic, two runs with the same
// ConfigHash must agree exactly on every simulated figure; the store
// is therefore also the artifact backbone for a dedupe-by-config-hash
// scheduler (ROADMAP item 1): results are cacheable by construction.
package runstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hyperhammer/internal/runartifact"
)

// Version is the index schema version this package writes.
const Version = 1

const indexFile = "index.jsonl"

// IndexEntry is one ingested run in the compact append-only index.
type IndexEntry struct {
	// Seq is the 1-based ingest sequence number; trend series are
	// ordered by it.
	Seq int `json:"seq"`
	// RunID names the stored document: "<seq>-<contentHash>". The
	// content suffix makes byte-identical reruns visible at a glance.
	RunID string `json:"runID"`
	// ConfigHash groups runs that claim identical simulated inputs;
	// the artifact lives under this directory.
	ConfigHash string `json:"configHash"`
	// ContentHash fingerprints the deterministic content: equal hashes
	// ⇒ every simulated figure is byte-identical.
	ContentHash string `json:"contentHash,omitempty"`
	Tool        string `json:"tool"`
	ToolVersion string `json:"toolVersion,omitempty"`
	Seed        uint64 `json:"seed"`
	Scale       string `json:"scale,omitempty"`
	// CreatedAt echoes the artifact's wall-clock stamp; IngestedAt is
	// when this store accepted it. Both are host observations and never
	// compared.
	CreatedAt  string  `json:"createdAt,omitempty"`
	IngestedAt string  `json:"ingestedAt,omitempty"`
	SimSeconds float64 `json:"simSeconds,omitempty"`
	// Sim holds the zero-tolerance figures tracked across runs:
	// sim_seconds, outcome[...] rows, and fingerprint[section] folds.
	Sim map[string]float64 `json:"sim,omitempty"`
	// Host holds the host-cost summary from the plan section (wall,
	// CPU, speedup, efficiency) — noisy by nature, tracked with
	// min/median/last and never gated.
	Host map[string]float64 `json:"host,omitempty"`
}

// GroupKey identifies the experiment lineage an entry belongs to: the
// same tool at the same seed and scale, run over time. Config-knob
// changes within a lineage keep the key (the trend engine detects and
// classifies them via ConfigHash).
func (e IndexEntry) GroupKey() string {
	return fmt.Sprintf("%s/%s/seed%d", e.Tool, e.Scale, e.Seed)
}

// HistorySnapshot is the serialized index view /api/history serves and
// `hh inspect history` renders offline. Entries is never null.
type HistorySnapshot struct {
	Version int          `json:"version"`
	Dir     string       `json:"dir,omitempty"`
	Entries []IndexEntry `json:"entries"`
}

// Store is an open run-history store. All methods are safe for
// concurrent use; readers get snapshot copies, so HTTP handlers never
// race an in-flight ingest.
type Store struct {
	dir string

	// repaired reports the torn final index line Open dropped.
	repaired error

	mu      sync.Mutex
	entries []IndexEntry
	idx     *os.File
}

// Open opens (creating if needed) the store rooted at dir and loads
// its index.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("runstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s := &Store{dir: dir}
	path := filepath.Join(dir, indexFile)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for line := 1; dec.More(); line++ {
		start := dec.InputOffset()
		var e IndexEntry
		if err := dec.Decode(&e); err != nil {
			// An append cut short by a crash leaves a final line with no
			// newline: drop it and cut the index back to the last good
			// line, so the next append starts a clean line. A bad line
			// with more after it is corruption.
			torn := bytes.TrimLeft(data[start:], " \t\r\n")
			if bytes.IndexByte(torn, '\n') >= 0 {
				return nil, fmt.Errorf("runstore: %s line %d: %w", path, line, err)
			}
			if err := os.Truncate(path, int64(len(data)-len(torn))); err != nil {
				return nil, fmt.Errorf("runstore: %w", err)
			}
			s.repaired = fmt.Errorf("runstore: %s: dropped torn final line %d (%d bytes)", path, line, len(torn))
			break
		}
		s.entries = append(s.entries, e)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s.idx = f
	return s, nil
}

// Close releases the index append handle. Entries already ingested
// stay readable; further Ingest calls fail.
func (s *Store) Close() error {
	if s == nil || s.idx == nil {
		return nil
	}
	err := s.idx.Close()
	s.idx = nil
	return err
}

// Repaired reports the torn final index line Open dropped, nil when the
// index loaded whole. The store is usable either way; the CLIs print it
// as a warning.
func (s *Store) Repaired() error {
	if s == nil {
		return nil
	}
	return s.repaired
}

// Dir returns the store root ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Len returns the number of indexed runs (0 on a nil store).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Entries returns a copy of the index in ingest order (empty, never
// nil, on a nil store).
func (s *Store) Entries() []IndexEntry {
	if s == nil {
		return []IndexEntry{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]IndexEntry, len(s.entries))
	copy(out, s.entries)
	return out
}

// History returns the never-null snapshot /api/history serves.
func (s *Store) History() HistorySnapshot {
	return HistorySnapshot{Version: Version, Dir: s.Dir(), Entries: s.Entries()}
}

// Trend builds the cross-run trend report over a snapshot of the
// index (see trend.go). Safe on a nil store: the report is empty but
// schema-valid.
func (s *Store) Trend(opts TrendOptions) *Report {
	return Build(s.Entries(), opts)
}

// ByConfig returns the indexed runs with the given config hash, in
// ingest order — the dedupe primitive: a scheduler that finds entries
// here can serve the stored artifact instead of re-running.
func (s *Store) ByConfig(hash string) []IndexEntry {
	out := []IndexEntry{}
	for _, e := range s.Entries() {
		if e.ConfigHash == hash {
			out = append(out, e)
		}
	}
	return out
}

// Ingest stamps, stores, and indexes one run artifact, returning its
// index entry. The artifact document lands whole under
// <dir>/<configHash>/<runID>.json; the compact entry is appended to
// the index. Identical reruns are kept (the trend engine is what
// proves them identical), distinguished by their seq prefix.
func (s *Store) Ingest(a *runartifact.Artifact) (IndexEntry, error) {
	if s == nil {
		return IndexEntry{}, errors.New("runstore: ingest into a nil store")
	}
	if a == nil {
		return IndexEntry{}, errors.New("runstore: ingest a nil artifact")
	}
	a.Stamp()
	e := EntryFromArtifact(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		return IndexEntry{}, errors.New("runstore: store is closed")
	}
	e.Seq = s.nextSeqLocked()
	e.RunID = fmt.Sprintf("%06d-%s", e.Seq, e.ContentHash)
	e.IngestedAt = time.Now().UTC().Format(time.RFC3339)
	cfgDir := filepath.Join(s.dir, e.ConfigHash)
	if err := os.MkdirAll(cfgDir, 0o755); err != nil {
		return IndexEntry{}, fmt.Errorf("runstore: %w", err)
	}
	if err := a.WriteFile(filepath.Join(cfgDir, e.RunID+".json")); err != nil {
		return IndexEntry{}, err
	}
	return e, s.appendLocked(e)
}

// Load reads a stored run artifact back by its run ID.
func (s *Store) Load(runID string) (*runartifact.Artifact, error) {
	if s == nil {
		return nil, errors.New("runstore: load from a nil store")
	}
	s.mu.Lock()
	path := ""
	for _, e := range s.entries {
		if e.RunID == runID {
			path = filepath.Join(s.dir, e.ConfigHash, e.RunID+".json")
			break
		}
	}
	s.mu.Unlock()
	if path == "" {
		return nil, fmt.Errorf("runstore: run %q not in the index", runID)
	}
	return runartifact.ReadFile(path)
}

func (s *Store) nextSeqLocked() int {
	seq := 0
	for _, e := range s.entries {
		if e.Seq > seq {
			seq = e.Seq
		}
	}
	return seq + 1
}

func (s *Store) appendLocked(e IndexEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("runstore: encode index entry: %w", err)
	}
	if _, err := s.idx.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("runstore: append index: %w", err)
	}
	s.entries = append(s.entries, e)
	return nil
}

// EntryFromArtifact builds the compact index view of one artifact:
// identity hashes, headline sim figures, per-section fingerprints, and
// the host-cost summary. Seq/RunID/IngestedAt are filled by Ingest.
func EntryFromArtifact(a *runartifact.Artifact) IndexEntry {
	e := IndexEntry{
		ConfigHash:  a.ConfigHash,
		ContentHash: a.ContentHash(),
		Tool:        a.Tool,
		ToolVersion: a.ToolVersion,
		Seed:        a.Seed,
		Scale:       a.Scale,
		CreatedAt:   a.CreatedAt,
		SimSeconds:  a.SimSeconds,
		Sim:         map[string]float64{"sim_seconds": a.SimSeconds},
	}
	if e.ConfigHash == "" {
		e.ConfigHash = a.ComputeConfigHash()
	}
	for k, v := range a.Outcome {
		e.Sim["outcome["+k+"]"] = v
	}
	for section, fp := range a.Fingerprints() {
		e.Sim["fingerprint["+section+"]"] = fp
	}
	if p := a.Plan; p != nil && len(p.Units) > 0 {
		e.Host = map[string]float64{
			"workers":               float64(p.Workers),
			"wall_seconds":          p.WallSeconds,
			"cpu_seconds":           p.CPUSeconds,
			"busy_seconds":          p.BusySeconds,
			"sequential_seconds":    p.SequentialSeconds,
			"critical_path_seconds": p.CriticalPathSeconds,
			"actual_speedup":        p.ActualSpeedup,
			"efficiency":            p.Efficiency,
		}
	}
	return e
}
