package runartifact

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"hyperhammer/internal/inspect"
	"hyperhammer/internal/report"
)

// Delta is one compared figure.
type Delta struct {
	// Kind groups the row: a section's kind from the sections table
	// ("run" is the headline, "phase" a profile path).
	Kind string `json:"kind"`
	// Key identifies the figure within its kind (span path, metric
	// name+labels).
	Key string `json:"key"`
	// A and B are the old and new values; Delta = B − A.
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta"`
	// Flagged reports a simulated figure that moved. Host durations
	// are never flagged.
	Flagged bool `json:"flagged,omitempty"`
}

// Frac returns the relative change of the delta against the larger
// magnitude (0 when both sides are 0).
func (d Delta) Frac() float64 {
	base := abs(d.A)
	if b := abs(d.B); b > base {
		base = b
	}
	if base == 0 {
		return 0
	}
	return abs(d.Delta) / base
}

// Diff is the comparison of two artifacts.
type Diff struct {
	// Deltas lists every compared figure, kinds in sections-table
	// order, keys sorted within each kind.
	Deltas []Delta `json:"deltas"`
	// Flagged counts moved simulated figures; nonzero means the runs
	// diverged and the gate should fail.
	Flagged int `json:"flagged"`
	// gated counts the simulated figures among Deltas.
	gated int
}

// Regressed reports whether any simulated figure moved.
func (d *Diff) Regressed() bool { return d.Flagged > 0 }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// sectionClass says when a section's figures are compared, and whether
// they gate.
type sectionClass int

const (
	// simExact sections are seed-deterministic. They are compared
	// exactly whenever either artifact carries them (a section on one
	// side only shows as figures drifting from zero), since any drift
	// means the simulation behaved differently.
	simExact sectionClass = iota
	// hostCost sections measure the machine, not the simulation. They
	// are compared only when both artifacts carry them: the shape
	// exactly, the durations listed and never flagged.
	hostCost
)

// section is one artifact section's offline comparison. Compare and
// Fingerprints walk the sections table, so giving a new plane an
// hh diff comparison and a run-store fingerprint is one entry there.
type section struct {
	// kind is the Delta.Kind of the section's rows.
	kind  string
	class sectionClass
	// figures flattens the section to comparison keys; nil when the
	// artifact does not carry the section.
	figures func(*Artifact) map[string]float64
	// hostFigures flattens a hostCost section's durations, listed
	// after its shape figures and never flagged.
	hostFigures func(*Artifact) map[string]float64
	// fingerprint is the section's key in Fingerprints ("" leaves it
	// out). Sections sharing a key fold into one figure map, each key
	// renamed by fpKey when it is set.
	fingerprint string
	fpKey       func(key string) string
}

// sections lists every artifact section in verdict-table order.
var sections = []section{
	{kind: "run", figures: runFigures, fingerprint: "outcome"},
	{kind: "phase", figures: profileMap, fingerprint: "profile"},
	{kind: "counter", figures: counterMap, fingerprint: "counters"},
	{kind: "outcome", figures: func(a *Artifact) map[string]float64 { return a.Outcome },
		fingerprint: "outcome", fpKey: func(k string) string { return "outcome[" + k + "]" }},
	{kind: "heatmap", figures: heatmapMap, fingerprint: "heatmap"},
	{kind: "census", figures: censusMap, fingerprint: "census"},
	{kind: "alerts", figures: alertsMap, fingerprint: "alerts"},
	{kind: "forensics", figures: forensicsMap, fingerprint: "forensics"},
	// The ledger has no fingerprint: the run-store index and the
	// benchmark's golden digests record the fingerprint key set, so a
	// new key waits for a change that re-records both. hh diff still
	// compares every stream exactly.
	{kind: "ledger", figures: ledgerMap},
	// The plan is host cost, which never enters a deterministic digest.
	{kind: "plan", class: hostCost, figures: planShapeMap, hostFigures: planHostMap},
}

// Compare diffs two artifacts figure by figure, every section of the
// sections table in order: simulated figures exactly, host-cost
// durations listed without gating.
func Compare(a, b *Artifact) *Diff {
	d := &Diff{}
	for _, s := range sections {
		fa, fb := s.figures(a), s.figures(b)
		if s.class == hostCost && (fa == nil || fb == nil) {
			continue
		}
		for _, key := range unionKeys(fa, fb) {
			d.add(s.kind, key, fa[key], fb[key], true)
		}
		if s.hostFigures != nil {
			ha, hb := s.hostFigures(a), s.hostFigures(b)
			for _, key := range unionKeys(ha, hb) {
				d.add(s.kind, key, ha[key], hb[key], false)
			}
		}
	}
	return d
}

// add appends one compared figure. A gated figure is flagged when its
// delta is not exactly zero, NaN included.
func (d *Diff) add(kind, key string, va, vb float64, gated bool) {
	row := Delta{Kind: kind, Key: key, A: va, B: vb, Delta: vb - va}
	if gated {
		d.gated++
	}
	if gated && row.Delta != 0 {
		row.Flagged = true
		d.Flagged++
	}
	d.Deltas = append(d.Deltas, row)
}

// runFigures is the headline figure: the final simulated time.
func runFigures(a *Artifact) map[string]float64 {
	return map[string]float64{"sim_seconds": a.SimSeconds}
}

// activationsSuffix marks a phase's activation count; every other phase
// key is a span path's simulated seconds.
const activationsSuffix = " activations"

// planShapeMap flattens a plan report's deterministic shape: how many
// units were scheduled, and that each declared unit ran and was
// delivered. These must agree exactly across runs of the same matrix
// regardless of -parallel (the worker count itself is configuration,
// not shape, so it is compared as a host figure).
func planShapeMap(a *Artifact) map[string]float64 {
	p := a.Plan
	if p == nil {
		return nil
	}
	m := map[string]float64{}
	m["units"] = float64(len(p.Units))
	for _, u := range p.Units {
		b2f := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		m["unit["+u.Name+"].started"] = b2f(u.Started)
		m["unit["+u.Name+"].delivered"] = b2f(u.Delivered)
	}
	return m
}

// planHostMap flattens a plan report's host-time figures: headline
// costs, the efficiency line, and per-unit run durations.
func planHostMap(a *Artifact) map[string]float64 {
	p := a.Plan
	if p == nil {
		return nil
	}
	m := map[string]float64{}
	m["host workers"] = float64(p.Workers)
	m["host wall_seconds"] = p.WallSeconds
	m["host cpu_seconds"] = p.CPUSeconds
	m["host busy_seconds"] = p.BusySeconds
	m["host sequential_seconds"] = p.SequentialSeconds
	m["host critical_path_seconds"] = p.CriticalPathSeconds
	m["host max_speedup"] = p.MaxSpeedup
	m["host actual_speedup"] = p.ActualSpeedup
	m["host efficiency"] = p.Efficiency
	for _, u := range p.Units {
		m["host unit["+u.Name+"].run_seconds"] = u.RunSeconds
	}
	return m
}

// heatmapMap flattens a heatmap snapshot to comparison keys: the
// headline totals, per-bank sums, and an FNV-1a fingerprint over the
// full per-bucket grid so any cell-level drift is caught without
// emitting thousands of rows.
func heatmapMap(a *Artifact) map[string]float64 {
	h := a.Heatmap
	if h == nil {
		return nil
	}
	m := map[string]float64{}
	m["banks"] = float64(h.Banks)
	m["buckets"] = float64(h.Buckets)
	m["total_activations"] = float64(h.TotalActivations)
	m["total_flips"] = float64(h.TotalFlips)
	m["max_row_window"] = float64(h.MaxRowWindowActivations)
	grid := fnv.New64a()
	var word [8]byte
	mix := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		grid.Write(word[:])
	}
	for bank := 0; bank < len(h.Activations); bank++ {
		var act, flips int64
		for _, c := range h.Activations[bank] {
			act += c
			mix(c)
		}
		if bank < len(h.Flips) {
			for _, c := range h.Flips[bank] {
				flips += c
				mix(c)
			}
		}
		m[fmt.Sprintf("bank[%d].activations", bank)] = float64(act)
		m[fmt.Sprintf("bank[%d].flips", bank)] = float64(flips)
	}
	// Fold to float-exact 52 bits so the value survives the float64
	// comparison machinery unchanged.
	m["grid_fingerprint"] = float64(grid.Sum64() % (1 << 52))
	return m
}

// forensicsMap flattens a forensics snapshot to comparison keys: the
// headline totals, the verdict/owner/outcome tables, and an FNV-1a
// fingerprint over the serialized campaign records so any drift in
// per-attempt lineage (causes, flip details, sim times) is caught
// without emitting a row per flip.
func forensicsMap(a *Artifact) map[string]float64 {
	s := a.Forensics
	if s == nil {
		return nil
	}
	m := map[string]float64{}
	m["version"] = float64(s.Version)
	m["campaigns"] = float64(len(s.Campaigns))
	attempts := 0
	for i := range s.Campaigns {
		attempts += len(s.Campaigns[i].Attempts)
	}
	m["attempts"] = float64(attempts)
	m["flips_recorded"] = float64(s.FlipsRecorded)
	m["flips_truncated"] = float64(s.FlipsTruncated)
	for _, r := range s.Verdicts {
		m["verdict["+r.Key+"]"] = float64(r.N)
	}
	for _, r := range s.Owners {
		m["owner["+r.Key+"]"] = float64(r.N)
	}
	for _, r := range s.Outcomes {
		m["outcome["+r.Key+"]"] = float64(r.N)
	}
	raw, err := json.Marshal(s.Campaigns)
	if err == nil {
		h := fnv.New64a()
		h.Write(raw)
		// Fold to float-exact 52 bits, like the heatmap grid fingerprint.
		m["campaign_fingerprint"] = float64(h.Sum64() % (1 << 52))
	}
	return m
}

// ledgerMap flattens a determinism-ledger snapshot to comparison keys:
// per unit and stream, the final fingerprint (folded to float-exact 52
// bits, like the grid fingerprint) and event count, plus the epoch
// counts. Per-epoch fingerprints are implied by the finals — a run
// whose final fingerprints match at every stream had identical epoch
// trails — so flattening them would only multiply rows; hh bisect is
// the tool that walks epochs.
func ledgerMap(a *Artifact) map[string]float64 {
	s := a.Ledger
	if s == nil {
		return nil
	}
	m := map[string]float64{}
	m["version"] = float64(s.Version)
	m["epoch_seconds"] = s.EpochSimSeconds
	m["units"] = float64(len(s.Units))
	for _, u := range s.Units {
		prefix := ""
		if u.Unit != "" {
			prefix = u.Unit + "."
		}
		m[prefix+"epochs"] = float64(len(u.Epochs))
		m[prefix+"epochs_truncated"] = float64(u.EpochsTruncated)
		for _, sf := range u.Streams {
			fp, err := strconv.ParseUint(sf.FP, 16, 64)
			if err == nil {
				m[prefix+sf.Stream+".fp"] = float64(fp % (1 << 52))
			}
			m[prefix+sf.Stream+".count"] = float64(sf.Count)
		}
	}
	return m
}

// censusMap flattens census snapshots to comparison keys.
func censusMap(a *Artifact) map[string]float64 {
	if a.Census == nil {
		return nil
	}
	m := map[string]float64{}
	inspect.FlattenCensuses(a.Census, func(key string, v float64) { m[key] = v })
	return m
}

// alertsMap flattens the alert table: overall total and per-rule fired
// counts.
func alertsMap(a *Artifact) map[string]float64 {
	s := a.Alerts
	if s == nil {
		return nil
	}
	m := map[string]float64{}
	m["total"] = float64(s.Total)
	for _, rc := range s.ByRule {
		m["rule["+rc.Rule+"]"] = float64(rc.Count)
	}
	return m
}

// counterMap flattens an artifact's counter samples to "name{k=v,...}"
// keys.
func counterMap(a *Artifact) map[string]float64 {
	m := make(map[string]float64, len(a.Metrics.Counters))
	for _, s := range a.Metrics.Counters {
		m[sampleKey(s.Name, s.Labels)] = s.Value
	}
	return m
}

func sampleKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var parts []string
	for i := 0; i+1 < len(labels); i += 2 {
		parts = append(parts, labels[i]+"="+labels[i+1])
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

func unionKeys[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Table renders the verdict table. When onlyFlagged is set, unflagged
// rows are omitted (the usual CI view); otherwise every compared
// figure is listed.
func (d *Diff) Table(onlyFlagged bool) *report.Table {
	t := report.NewTable("run comparison", "kind", "key", "old", "new", "delta", "rel", "verdict")
	for _, row := range d.Deltas {
		if onlyFlagged && !row.Flagged {
			continue
		}
		verdict := "ok"
		if row.Flagged {
			verdict = "FAIL"
		}
		t.AddRow(row.Kind, row.Key,
			formatVal(row.A), formatVal(row.B), formatVal(row.Delta),
			fmt.Sprintf("%+.1f%%", 100*signedFrac(row)), verdict)
	}
	return t
}

// Summary is the one-line verdict: whether any simulated figure moved.
// Host durations are compared and listed but never counted against it.
func (d *Diff) Summary() string {
	if d.Flagged == 0 {
		return fmt.Sprintf("hh diff: %d figures compared, every simulated figure matches", len(d.Deltas))
	}
	return fmt.Sprintf("hh diff: %d of %d simulated figures moved", d.Flagged, d.gated)
}

func signedFrac(d Delta) float64 {
	f := d.Frac()
	if d.Delta < 0 {
		return -f
	}
	return f
}

// formatVal prints values compactly but deterministically: integers
// without a fraction, everything else with enough digits to show the
// drift.
func formatVal(v float64) string {
	if v == float64(int64(v)) && abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
