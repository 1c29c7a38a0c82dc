package runartifact

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hyperhammer/internal/benchfmt"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/report"
)

// Tolerances bounds how far two artifacts may drift before hh-diff
// flags them. Simulated metrics default to zero tolerance — the clock
// is simulated and the run is seed-deterministic, so any drift means
// the code's behavior changed. Wall-clock benchmark figures are noisy
// and get a generous relative band.
type Tolerances struct {
	// SimFrac/SimAbs bound per-phase and total simulated-time drift:
	// a delta is within tolerance when |Δ| ≤ max(SimAbs, SimFrac·max(|a|,|b|)).
	SimFrac float64
	SimAbs  float64
	// CountFrac/CountAbs bound counter drift (DRAM activations,
	// hammer rounds, attempt counts, ...), same rule.
	CountFrac float64
	CountAbs  float64
	// BenchFrac bounds benchmark ns/op drift relative to the old
	// value; other bench metrics are informational only.
	BenchFrac float64
	// HostFrac/HostAbs bound the plan section's host-time figures
	// (wall seconds, per-unit run times, critical path). Host time is
	// real wall clock — noisy by nature and legitimately different
	// across -parallel settings — so the default is HostFrac = 1.0,
	// which under the max(|a|,|b|)-relative rule never flags
	// non-negative durations: plan durations are listed for the
	// record, and only gate when the caller tightens -host-tol. The
	// plan's *shape* (unit count, per-unit presence) always compares
	// at the exact count tolerance.
	HostFrac float64
	HostAbs  float64
}

// DefaultTolerances: exact on everything simulated, ±30% on ns/op,
// host durations listed but not gated.
func DefaultTolerances() Tolerances {
	return Tolerances{BenchFrac: 0.30, HostFrac: 1.0}
}

// Delta is one compared figure.
type Delta struct {
	// Kind groups the row: a section's kind from the sections table
	// ("run" is the headline, "phase" a profile path), or "bench".
	Kind string `json:"kind"`
	// Key identifies the figure within its kind (span path, metric
	// name+labels, benchmark name).
	Key string `json:"key"`
	// A and B are the old and new values; Delta = B − A.
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta"`
	// Flagged reports the delta exceeded its tolerance.
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

// Diff is the comparison of two artifacts (or bench documents).
type Diff struct {
	// Deltas lists every compared figure, kinds in sections-table
	// order with bench last, keys sorted within each kind.
	Deltas []Delta `json:"deltas"`
	// Flagged counts deltas beyond tolerance; nonzero means the runs
	// diverged and the gate should fail.
	Flagged int `json:"flagged"`
}

// Regressed reports whether any figure drifted beyond tolerance.
func (d *Diff) Regressed() bool { return d.Flagged > 0 }

// withinTol applies the |Δ| ≤ max(abs, frac·max(|a|,|b|)) rule.
func withinTol(a, b, frac, absTol float64) bool {
	d := abs(b - a)
	base := abs(a)
	if x := abs(b); x > base {
		base = x
	}
	limit := frac * base
	if absTol > limit {
		limit = absTol
	}
	return d <= limit
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// tolClass says when a section's figures are compared, and how loosely.
type tolClass int

const (
	// simExact sections are seed-deterministic. They are compared
	// whenever either artifact carries them (a section on one side only
	// shows as figures drifting from zero), at the count tolerance, or
	// the sim tolerance for simulated-seconds figures; both default to
	// zero, since any drift means the simulation behaved differently.
	simExact tolClass = iota
	// hostCost sections measure the machine, not the simulation. Like
	// bench, they are compared only when both artifacts carry them: the
	// shape at the count tolerance, the durations at the host tolerance
	// (which defaults to never-flag).
	hostCost
)

// section is one artifact section's offline comparison. Compare and
// Fingerprints walk the sections table, so giving a new plane an
// hh-diff comparison and a run-store fingerprint is one entry there.
type section struct {
	// kind is the Delta.Kind of the section's rows.
	kind  string
	class tolClass
	// figures flattens the section to comparison keys; nil when the
	// artifact does not carry the section.
	figures func(*Artifact) map[string]float64
	// simTime reports the keys that are simulated seconds, compared at
	// the sim tolerance rather than the count tolerance (nil: none).
	simTime func(key string) bool
	// hostFigures flattens a hostCost section's durations, compared
	// after its shape figures at the host tolerance.
	hostFigures func(*Artifact) map[string]float64
	// fingerprint is the section's key in Fingerprints ("" leaves it
	// out). Sections sharing a key fold into one figure map, each key
	// renamed by fpKey when it is set.
	fingerprint string
	fpKey       func(key string) string
}

// sections lists every artifact section in verdict-table order.
var sections = []section{
	{kind: "run", figures: runFigures, simTime: func(string) bool { return true }, fingerprint: "outcome"},
	{kind: "phase", figures: profileMap, simTime: isPhaseSeconds, fingerprint: "profile"},
	{kind: "counter", figures: counterMap, fingerprint: "counters"},
	{kind: "outcome", figures: func(a *Artifact) map[string]float64 { return a.Outcome },
		fingerprint: "outcome", fpKey: func(k string) string { return "outcome[" + k + "]" }},
	{kind: "heatmap", figures: heatmapMap, fingerprint: "heatmap"},
	{kind: "census", figures: censusMap, fingerprint: "census"},
	{kind: "alerts", figures: alertsMap, fingerprint: "alerts"},
	{kind: "forensics", figures: forensicsMap, fingerprint: "forensics"},
	// The ledger has no fingerprint: the run-store index and the
	// benchmark's golden digests record the fingerprint key set, so a
	// new key waits for a change that re-records both. hh-diff still
	// compares every stream exactly.
	{kind: "ledger", figures: ledgerMap},
	// The plan is host cost, which never enters a deterministic digest.
	{kind: "plan", class: hostCost, figures: planShapeMap, hostFigures: planHostMap},
}

// Compare diffs two artifacts figure by figure under the given
// tolerances: every section of the sections table in order, then —
// when both artifacts embed one — the benchmark documents.
func Compare(a, b *Artifact, tol Tolerances) *Diff {
	d := &Diff{}
	for _, s := range sections {
		fa, fb := s.figures(a), s.figures(b)
		if s.class == hostCost && (fa == nil || fb == nil) {
			continue
		}
		for _, key := range unionKeys(fa, fb) {
			frac, absTol := tol.CountFrac, tol.CountAbs
			if s.simTime != nil && s.simTime(key) {
				frac, absTol = tol.SimFrac, tol.SimAbs
			}
			d.add(s.kind, key, fa[key], fb[key], frac, absTol)
		}
		if s.hostFigures != nil {
			ha, hb := s.hostFigures(a), s.hostFigures(b)
			for _, key := range unionKeys(ha, hb) {
				d.add(s.kind, key, ha[key], hb[key], tol.HostFrac, tol.HostAbs)
			}
		}
	}
	if a.Bench != nil && b.Bench != nil {
		benchDeltas(d, a.Bench, b.Bench, tol)
	}
	return d
}

// add appends one compared figure, flagging it when the delta exceeds
// the tolerance.
func (d *Diff) add(kind, key string, va, vb, frac, absTol float64) {
	row := Delta{Kind: kind, Key: key, A: va, B: vb, Delta: vb - va}
	if !withinTol(va, vb, frac, absTol) {
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

func isPhaseSeconds(key string) bool { return !strings.HasSuffix(key, activationsSuffix) }

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
	fp := uint64(14695981039346656037)
	mix := func(v int64) {
		for i := 0; i < 8; i++ {
			fp ^= uint64(v>>(8*i)) & 0xff
			fp *= 1099511628211
		}
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
	m["grid_fingerprint"] = float64(fp % (1 << 52))
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
		fp := uint64(14695981039346656037)
		for _, c := range raw {
			fp ^= uint64(c)
			fp *= 1099511628211
		}
		// Fold to float-exact 52 bits, like the heatmap grid fingerprint.
		m["campaign_fingerprint"] = float64(fp % (1 << 52))
	}
	return m
}

// ledgerMap flattens a determinism-ledger snapshot to comparison keys:
// per unit and stream, the final fingerprint (folded to float-exact 52
// bits, like the grid fingerprint) and event count, plus the epoch
// counts. Per-epoch fingerprints are implied by the finals — a run
// whose final fingerprints match at every stream had identical epoch
// trails — so flattening them would only multiply rows; hh-bisect is
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

// CompareBench diffs two plain benchmark documents (BENCH_*.json).
func CompareBench(a, b *benchfmt.Output, tol Tolerances) *Diff {
	d := &Diff{}
	benchDeltas(d, a, b, tol)
	return d
}

func benchDeltas(d *Diff, a, b *benchfmt.Output, tol Tolerances) {
	ba, bb := a.ByName(), b.ByName()
	names := make([]string, 0, len(ba))
	for n := range ba {
		names = append(names, n)
	}
	for n := range bb {
		if _, ok := ba[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		oa, oka := ba[n]
		ob, okb := bb[n]
		if !oka || !okb {
			// A benchmark appearing or disappearing is always flagged.
			d.Deltas = append(d.Deltas, Delta{
				Kind: "bench", Key: n + " ns/op",
				A: oa.Metrics["ns/op"], B: ob.Metrics["ns/op"],
				Delta:   ob.Metrics["ns/op"] - oa.Metrics["ns/op"],
				Flagged: true,
			})
			d.Flagged++
			continue
		}
		d.add("bench", n+" ns/op", oa.Metrics["ns/op"], ob.Metrics["ns/op"], tol.BenchFrac, 0)
	}
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

// Table renders the verdict table. When onlyFlagged is set, in-
// tolerance rows are omitted (the usual CI view); otherwise every
// compared figure is listed.
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

// Summary is the one-line verdict.
func (d *Diff) Summary() string {
	if d.Flagged == 0 {
		return fmt.Sprintf("hh-diff: %d figures compared, all within tolerance", len(d.Deltas))
	}
	return fmt.Sprintf("hh-diff: %d of %d figures beyond tolerance", d.Flagged, len(d.Deltas))
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
