package runstore

import (
	"fmt"
	"sort"
	"time"

	"hyperhammer/internal/runartifact"
)

// TrendOptions selects the runs the trend engine folds. The zero value
// keeps every run.
type TrendOptions struct {
	// Since drops runs ingested before this instant (zero keeps all).
	Since time.Time
	// LastN keeps only the newest N runs of each group (0 keeps all).
	LastN int
}

// Drift classification for a group's first simulated-figure
// divergence.
const (
	// DriftDeterminism: the config hash did NOT change where figures
	// did — same claimed inputs, different results. This is a
	// determinism regression (or an intentional code change that must
	// bump ToolVersion and the baselines).
	DriftDeterminism = "determinism"
	// DriftConfig: the config hash changed at the same run the figures
	// did — the lineage's knobs moved, so the series is measuring a new
	// experiment from that run on.
	DriftConfig = "config"
)

// TrendPoint is one run's value of one figure.
type TrendPoint struct {
	Seq   int     `json:"seq"`
	RunID string  `json:"runID"`
	V     float64 `json:"v"`
}

// FigureTrend is one figure folded across a group's runs.
type FigureTrend struct {
	Name string `json:"name"`
	// Kind is "sim" (exact) or "host" (listed, never gated).
	Kind   string       `json:"kind"`
	Points []TrendPoint `json:"points"`
	Min    float64      `json:"min"`
	Median float64      `json:"median"`
	Last   float64      `json:"last"`
	// Regressed gates the hh trend exit status: a sim figure regresses
	// on any drift at all; a host figure never does.
	Regressed bool `json:"regressed,omitempty"`
	// FirstRegressedSeq/Run attribute the first run that broke the
	// figure (0/"" when it never regressed).
	FirstRegressedSeq int    `json:"firstRegressedSeq,omitempty"`
	FirstRegressedRun string `json:"firstRegressedRun,omitempty"`
}

// RunRef is the per-run identity row of a group.
type RunRef struct {
	Seq         int    `json:"seq"`
	RunID       string `json:"runID"`
	ConfigHash  string `json:"configHash"`
	ContentHash string `json:"contentHash,omitempty"`
	ToolVersion string `json:"toolVersion,omitempty"`
	IngestedAt  string `json:"ingestedAt,omitempty"`
}

// GroupTrend folds one experiment lineage (same tool/seed/scale over
// time; see IndexEntry.GroupKey).
type GroupTrend struct {
	Key   string   `json:"key"`
	Tool  string   `json:"tool"`
	Seed  uint64   `json:"seed"`
	Scale string   `json:"scale,omitempty"`
	Runs  []RunRef `json:"runs"`
	// ConfigHashes counts distinct hashes across the runs: 1 means the
	// whole lineage claims identical inputs, so every sim figure must
	// be flat.
	ConfigHashes int           `json:"configHashes"`
	Figures      []FigureTrend `json:"figures"`
	// SimDrift reports any simulated figure moved anywhere in the
	// lineage; DriftKind classifies the first divergence and
	// FirstDriftSeq/Run attribute it.
	SimDrift      bool     `json:"simDrift"`
	DriftKind     string   `json:"driftKind,omitempty"`
	FirstDriftSeq int      `json:"firstDriftSeq,omitempty"`
	FirstDriftRun string   `json:"firstDriftRun,omitempty"`
	DriftFigures  []string `json:"driftFigures,omitempty"`
}

// Report is the whole trend view, served by /api/trend and rendered by
// hh trend. Groups is never null.
type Report struct {
	Version int          `json:"version"`
	Runs    int          `json:"runs"`
	Groups  []GroupTrend `json:"groups"`
	// Flagged counts drifted sim figures; nonzero fails hh trend with
	// exit 1, like hh diff.
	Flagged int `json:"flagged"`
}

// Regressed reports whether any figure trajectory gates.
func (r *Report) Regressed() bool { return r.Flagged > 0 }

// Build folds index entries into the cross-run trend report. Entries
// are grouped by lineage, ordered by ingest seq; simulated figures are
// checked exactly, as hh diff does (any change between consecutive
// same-lineage runs is drift), host figures are listed with
// min/median/last and never gate.
func Build(entries []IndexEntry, opts TrendOptions) *Report {
	r := &Report{Version: Version, Groups: []GroupTrend{}}
	groups := map[string][]IndexEntry{}
	for _, e := range entries {
		if !opts.Since.IsZero() && e.IngestedAt != "" {
			if t, err := time.Parse(time.RFC3339, e.IngestedAt); err == nil && t.Before(opts.Since) {
				continue
			}
		}
		groups[e.GroupKey()] = append(groups[e.GroupKey()], e)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		runs := groups[key]
		sort.Slice(runs, func(i, j int) bool { return runs[i].Seq < runs[j].Seq })
		if opts.LastN > 0 && len(runs) > opts.LastN {
			runs = runs[len(runs)-opts.LastN:]
		}
		g := buildGroup(key, runs)
		r.Runs += len(runs)
		for i := range g.Figures {
			if g.Figures[i].Regressed {
				r.Flagged++
			}
		}
		r.Groups = append(r.Groups, g)
	}
	return r
}

func buildGroup(key string, runs []IndexEntry) GroupTrend {
	g := GroupTrend{
		Key:   key,
		Tool:  runs[0].Tool,
		Seed:  runs[0].Seed,
		Scale: runs[0].Scale,
		Runs:  make([]RunRef, 0, len(runs)),
	}
	hashes := map[string]bool{}
	for _, e := range runs {
		g.Runs = append(g.Runs, RunRef{
			Seq: e.Seq, RunID: e.RunID,
			ConfigHash: e.ConfigHash, ContentHash: e.ContentHash,
			ToolVersion: e.ToolVersion, IngestedAt: e.IngestedAt,
		})
		hashes[e.ConfigHash] = true
	}
	g.ConfigHashes = len(hashes)

	g.Figures = append(g.Figures, simFigures(runs)...)
	g.Figures = append(g.Figures, hostFigures(runs)...)

	// Group-level drift attribution: the earliest run any sim figure
	// moved at, classified by whether the config hash moved with it.
	for _, f := range g.Figures {
		if f.Kind != "sim" || !f.Regressed {
			continue
		}
		g.SimDrift = true
		g.DriftFigures = append(g.DriftFigures, f.Name)
		if g.FirstDriftSeq == 0 || f.FirstRegressedSeq < g.FirstDriftSeq {
			g.FirstDriftSeq = f.FirstRegressedSeq
			g.FirstDriftRun = f.FirstRegressedRun
		}
	}
	sort.Strings(g.DriftFigures)
	if g.SimDrift {
		g.DriftKind = DriftDeterminism
		for i := 1; i < len(runs); i++ {
			if runs[i].Seq == g.FirstDriftSeq && runs[i].ConfigHash != runs[i-1].ConfigHash {
				g.DriftKind = DriftConfig
			}
		}
	}
	return g
}

// simFigures folds every zero-tolerance figure of a lineage. A figure
// regresses at the first run where its value differs from the previous
// run's — or where it appears or disappears, which is the same
// behavioral statement.
func simFigures(runs []IndexEntry) []FigureTrend {
	names := unionNames(runs, func(e IndexEntry) map[string]float64 { return e.Sim })
	out := make([]FigureTrend, 0, len(names))
	for _, name := range names {
		f := FigureTrend{Name: name, Kind: "sim", Points: []TrendPoint{}}
		var prevV float64
		var prevOK, started bool
		for _, e := range runs {
			v, ok := e.Sim[name]
			if ok {
				f.Points = append(f.Points, TrendPoint{Seq: e.Seq, RunID: e.RunID, V: v})
			}
			if started && !f.Regressed && (ok != prevOK || (ok && v != prevV)) {
				f.Regressed = true
				f.FirstRegressedSeq, f.FirstRegressedRun = e.Seq, e.RunID
			}
			prevV, prevOK, started = v, ok, true
		}
		fillStats(&f)
		out = append(out, f)
	}
	return out
}

// hostFigures folds the host-cost figures of a lineage: each is a
// trajectory with min/median/last, listed and never gated, since host
// cost is wall clock and the paired benchmark runs are its gate.
func hostFigures(runs []IndexEntry) []FigureTrend {
	names := unionNames(runs, func(e IndexEntry) map[string]float64 { return e.Host })
	out := make([]FigureTrend, 0, len(names))
	for _, name := range names {
		f := FigureTrend{Name: name, Kind: "host", Points: []TrendPoint{}}
		for _, e := range runs {
			if v, ok := e.Host[name]; ok {
				f.Points = append(f.Points, TrendPoint{Seq: e.Seq, RunID: e.RunID, V: v})
			}
		}
		fillStats(&f)
		out = append(out, f)
	}
	return out
}

func fillStats(f *FigureTrend) {
	if len(f.Points) == 0 {
		return
	}
	vals := make([]float64, len(f.Points))
	for i, p := range f.Points {
		vals[i] = p.V
	}
	f.Last = vals[len(vals)-1]
	sort.Float64s(vals)
	f.Min = vals[0]
	f.Median = vals[len(vals)/2]
	if len(vals)%2 == 0 {
		f.Median = (vals[len(vals)/2-1] + vals[len(vals)/2]) / 2
	}
}

func unionNames(runs []IndexEntry, get func(IndexEntry) map[string]float64) []string {
	set := map[string]bool{}
	for _, e := range runs {
		for k := range get(e) {
			set[k] = true
		}
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// DriftDetail attributes a group's first simulated-figure divergence
// figure-by-figure: it loads the stored artifacts on either side of
// the first drifted run and compares them with hh diff's
// zero-tolerance machinery, returning up to max flagged deltas. This
// is what turns "fingerprint[counters] moved at run 000003" into the
// actual counter names.
func (s *Store) DriftDetail(g *GroupTrend, max int) ([]runartifact.Delta, error) {
	if s == nil || g == nil || !g.SimDrift {
		return nil, nil
	}
	var prev, cur string
	for i, ref := range g.Runs {
		if ref.Seq == g.FirstDriftSeq && i > 0 {
			prev, cur = g.Runs[i-1].RunID, ref.RunID
		}
	}
	if prev == "" {
		return nil, fmt.Errorf("runstore: drifted run %d has no predecessor in the group", g.FirstDriftSeq)
	}
	a, err := s.Load(prev)
	if err != nil {
		return nil, err
	}
	b, err := s.Load(cur)
	if err != nil {
		return nil, err
	}
	d := runartifact.Compare(a, b)
	out := []runartifact.Delta{}
	for _, row := range d.Deltas {
		if !row.Flagged {
			continue
		}
		out = append(out, row)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out, nil
}
