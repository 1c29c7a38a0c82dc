// Package runartifact defines the self-describing run bundle the CLIs
// write with -artifact: everything needed to compare two runs after
// the fact — the configuration and seed of record, the final metrics
// snapshot, the folded cost profile (see internal/profile), the
// observation planes' sections, and the campaign outcome.
//
// Because the simulation is deterministic for a fixed seed and its
// clock is simulated (machine-speed independent), two artifacts from
// the same seed must agree exactly on every sim-time and counter
// figure; hh diff exploits this to gate regressions by comparing every
// simulated figure exactly, with a tolerance only on the plan
// section's host durations.
package runartifact

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hyperhammer/internal/forensics"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/profile"
)

// Version is the artifact schema version this package writes.
const Version = 1

// Artifact is the whole bundle. CreatedAt is the only wall-clock field
// and is excluded from comparison; everything else is reproducible
// from Seed + Config.
type Artifact struct {
	Version int `json:"version"`
	// Tool is the producing run's lineage identity: "hyperhammer" for
	// hh run, "hh tables" for hh tables. It enters ConfigHash and the
	// store lineage, so it is not renamed with the command.
	Tool string `json:"tool"`
	// ToolVersion is the release of the producing tool, stamped at
	// write time. It identifies *code*, not configuration: two runs
	// with equal ConfigHash but different ToolVersion that disagree on
	// figures point at a code change, not a config change.
	ToolVersion string `json:"toolVersion,omitempty"`
	// ConfigHash is the canonical hash of the deterministic config
	// section (tool, seed, scale, and Config minus the host-only keys
	// in HostOnlyConfigKeys), stamped at write time. Same hash ⇒ the
	// runs claim identical simulated inputs, so every simulated figure
	// must match exactly; internal/runstore indexes its artifact store
	// by this hash and hh diff prints a notice when hashes differ.
	ConfigHash string `json:"configHash,omitempty"`
	CreatedAt  string `json:"createdAt,omitempty"`
	// Seed and Scale identify the run: same seed + scale + code ⇒
	// byte-identical simulated results.
	Seed  uint64 `json:"seed"`
	Scale string `json:"scale,omitempty"` // "short" or "full"
	// Config records the effective knob settings (flag name → value).
	Config map[string]string `json:"config,omitempty"`
	// SimSeconds is the final simulated-clock reading.
	SimSeconds float64 `json:"simSeconds"`
	// Outcome holds the campaign's headline numbers (attempts,
	// successes, bits found, per-phase seconds, ...).
	Outcome map[string]float64 `json:"outcome,omitempty"`
	// Metrics is the final registry snapshot.
	Metrics metrics.Snapshot `json:"metrics"`
	// Profile is the folded cost profile's entry table.
	Profile []profile.Entry `json:"profile,omitempty"`
	// Heatmap, Census and Alerts embed the hardware introspection
	// plane's snapshots when the run carried an inspector; hh diff
	// compares all three exactly and hh top renders them offline.
	Heatmap *inspect.HeatmapSnapshot `json:"heatmap,omitempty"`
	Census  *inspect.CensusSnapshot  `json:"census,omitempty"`
	Alerts  *inspect.AlertsSnapshot  `json:"alerts,omitempty"`
	// Forensics embeds the flip-provenance plane's snapshot when the
	// run carried a recorder: per-attempt flip lineage, verdict and
	// owner taxonomies, and campaign outcome tables. hh why reads
	// this section offline; hh diff compares it at zero tolerance.
	Forensics *forensics.Snapshot `json:"forensics,omitempty"`
	// Ledger embeds the determinism-ledger plane's snapshot when the
	// run carried a recorder: rolling per-stream fingerprints sealed
	// into sim-time epochs, per unit. hh bisect localizes
	// divergence between two artifacts from this section; hh diff
	// compares it at zero tolerance.
	Ledger *ledger.Snapshot `json:"ledger,omitempty"`
	// Plan embeds the host-cost schedule analysis (per-unit host
	// timings, critical path, parallel efficiency). Unlike every other
	// section it measures the *host*, so it is the one part of the
	// artifact that legitimately differs across runs and -parallel
	// settings; hh diff checks its shape exactly and lists its
	// durations without gating them. hh plan renders it offline.
	Plan *profile.PlanReport `json:"plan,omitempty"`
}

// SetInspector embeds the inspector's three snapshots; a nil inspector
// leaves the artifact without introspection sections (old readers and
// hh diff treat missing sections as absent, not as zeros drifting).
func (a *Artifact) SetInspector(ins *inspect.Inspector) {
	if ins == nil {
		return
	}
	h := ins.HeatmapSnapshot()
	c := ins.CensusSnapshot()
	al := ins.AlertsSnapshot()
	a.Heatmap, a.Census, a.Alerts = &h, &c, &al
}

// SetForensics embeds the recorder's snapshot; a nil recorder leaves
// the artifact without a forensics section.
func (a *Artifact) SetForensics(r *forensics.Recorder) {
	if r == nil {
		return
	}
	s := r.Snapshot()
	a.Forensics = &s
}

// SetLedger embeds the recorder's snapshot; a nil recorder leaves the
// artifact without a ledger section.
func (a *Artifact) SetLedger(r *ledger.Recorder) {
	if r == nil {
		return
	}
	s := r.Snapshot()
	a.Ledger = &s
}

// SetPlan embeds the host-cost plan report; a nil report leaves the
// artifact without a plan section.
func (a *Artifact) SetPlan(p *profile.PlanReport) {
	if p != nil {
		a.Plan = p
	}
}

// New returns an artifact shell with the identifying fields set.
func New(tool string, seed uint64, scale string) *Artifact {
	return &Artifact{
		Version: Version,
		Tool:    tool,
		Seed:    seed,
		Scale:   scale,
		Config:  map[string]string{},
		Outcome: map[string]float64{},
	}
}

// SetProfile stores a profile snapshot's entries.
func (a *Artifact) SetProfile(p *profile.Profile) {
	if p != nil {
		a.Profile = p.Entries
	}
}

// Folded renders the stored profile entries as flamegraph folded
// stacks, identical to profile.Profile.Folded on the source profile.
func (a *Artifact) Folded() string {
	p := profile.Profile{Entries: a.Profile}
	return p.Folded()
}

// Write serializes the artifact as indented JSON, stamping the
// derived header fields (ConfigHash, ToolVersion) first so every
// written artifact carries them regardless of which exit path built
// it.
func (a *Artifact) Write(w io.Writer) error {
	a.Stamp()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("runartifact: encode: %w", err)
	}
	return nil
}

// WriteFile writes the artifact to path crash-safely (WriteFileAtomic),
// so a failed or interrupted write leaves any previous artifact at path
// whole instead of truncated.
func (a *Artifact) WriteFile(path string) error {
	return WriteFileAtomic(path, a.Write)
}

// WriteFileAtomic writes path through write crash-safely: the bytes go
// to a temporary file in the same directory, which is synced and then
// renamed over path. A failed or interrupted write leaves any previous
// file at path whole and no temporary file behind. The CLI writes its
// one-piece run files through it (artifacts, metrics, Chrome traces);
// the streamed JSONL trace is not, because its tail is what explains a
// crash.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(f)
	// CreateTemp makes the file owner-only; run files are shared output.
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Read parses an artifact. It rejects documents that are not
// artifacts (no version stamp) and versions newer than this package
// writes.
func Read(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("runartifact: decode: %w", err)
	}
	if a.Version == 0 {
		return nil, fmt.Errorf("runartifact: not a run artifact (no version field)")
	}
	if a.Version > Version {
		return nil, fmt.Errorf("runartifact: version %d is newer than supported %d", a.Version, Version)
	}
	return &a, nil
}

// ReadFile reads an artifact from path.
func ReadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runartifact: %w", err)
	}
	defer f.Close()
	a, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
