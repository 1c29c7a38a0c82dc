package runartifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
	"sort"
	"strconv"
)

// ToolVersion is the release stamp written into every artifact header.
// Bump it when a release intentionally changes simulated figures: the
// run-history trend engine then shows *why* same-config runs diverged
// (code moved, not config).
const ToolVersion = "0.8.0"

// HostOnlyConfigKeys names config entries that describe how a run was
// *executed* rather than what was simulated, so they are excluded from
// ConfigHash (DESIGN fidelity rule 6: host cost never enters a
// deterministic section). "parallel" cannot change any simulated
// figure by construction (the plan engine folds results in declaration
// order), and "selection" is the raw command line, which drags
// host-only flags and output paths into the identity; hh tables
// records the normalized experiment set under "selected" instead.
var HostOnlyConfigKeys = map[string]bool{
	"parallel":  true,
	"selection": true,
}

// Stamp fills the derived header fields. Write calls it on every
// serialization; runstore.Ingest calls it before indexing.
func (a *Artifact) Stamp() {
	a.ToolVersion = ToolVersion
	a.ConfigHash = a.ComputeConfigHash()
}

// ComputeConfigHash hashes the deterministic config section: tool,
// seed, scale, and the Config map minus HostOnlyConfigKeys, serialized
// as canonical JSON (encoding/json sorts map keys, and the struct
// field order below is fixed). The result is 16 hex characters —
// enough to never collide in a local store while staying readable in
// tables and directory names.
func (a *Artifact) ComputeConfigHash() string {
	cfg := make(map[string]string, len(a.Config))
	for k, v := range a.Config {
		if !HostOnlyConfigKeys[k] {
			cfg[k] = v
		}
	}
	doc := struct {
		Tool   string            `json:"tool"`
		Seed   uint64            `json:"seed"`
		Scale  string            `json:"scale"`
		Config map[string]string `json:"config"`
	}{a.Tool, a.Seed, a.Scale, cfg}
	b, err := json.Marshal(doc)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// ContentHash hashes the deterministic content of the artifact: the
// full bundle minus the fields that legitimately differ between
// byte-identical-figure runs (CreatedAt is wall clock, Plan is host
// cost, ToolVersion is a release stamp, and HostOnlyConfigKeys
// describe execution, not simulation — hh tables at -parallel 1 and
// -parallel 4 produces the same hash). Two same-config runs of the
// same code hash equal — the single-value determinism check the
// run-history store records per run, and the visible suffix of every
// stored run ID.
func (a *Artifact) ContentHash() string {
	c := *a
	c.CreatedAt = ""
	c.ToolVersion = ""
	c.Plan = nil
	cfg := make(map[string]string, len(a.Config))
	for k, v := range a.Config {
		if !HostOnlyConfigKeys[k] {
			cfg[k] = v
		}
	}
	c.Config = cfg
	b, err := json.Marshal(&c)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Fingerprints folds each deterministic artifact section into one
// FNV-1a figure, keyed by the section's fingerprint name in the
// sections table: "outcome" (headline sim time and campaign outcome),
// "profile" (per-path sim cost), "counters" (the metrics snapshot), and
// — when the run carried them — "heatmap", "census", "alerts", and
// "forensics". The flattenings are exactly the maps Compare diffs at
// zero tolerance, so two artifacts with equal fingerprints are
// clean under hh diff on those sections, and a drifted section names where
// the divergence lives without storing every figure. Values are folded
// to 52 bits so they survive float64 comparison machinery unchanged
// (like the heatmap grid fingerprint).
func (a *Artifact) Fingerprints() map[string]float64 {
	folds := map[string]map[string]float64{}
	for _, s := range sections {
		if s.fingerprint == "" {
			continue
		}
		m := s.figures(a)
		if m == nil {
			continue
		}
		fold := folds[s.fingerprint]
		if fold == nil {
			fold = make(map[string]float64, len(m))
			folds[s.fingerprint] = fold
		}
		for k, v := range m {
			if s.fpKey != nil {
				k = s.fpKey(k)
			}
			fold[k] = v
		}
	}
	out := make(map[string]float64, len(folds))
	for name, fold := range folds {
		out[name] = fingerprintMap(fold)
	}
	return out
}

// profileMap flattens the folded cost profile: per-path sim seconds
// plus per-path activation counts.
func profileMap(a *Artifact) map[string]float64 {
	m := make(map[string]float64, 2*len(a.Profile))
	for _, e := range a.Profile {
		m[e.Path] = e.SimSeconds
		if e.Activations != 0 {
			m[e.Path+activationsSuffix] = float64(e.Activations)
		}
	}
	return m
}

// fingerprintMap hashes a figure map order-independently: sorted
// key=value lines through FNV-1a, value formatted with the shortest
// round-trippable float encoding, folded to float-exact 52 bits.
func fingerprintMap(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	var line []byte
	for _, k := range keys {
		line = append(append(line[:0], k...), '=')
		line = append(strconv.AppendFloat(line, m[k], 'g', -1, 64), '\n')
		h.Write(line)
	}
	return float64(h.Sum64() % (1 << 52))
}
