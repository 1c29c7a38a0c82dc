package inspect

// The watchpoints are five fixed alarms on the paper's attack
// milestones, evaluated at sample ticks on the simulated clock. Each
// reads one value: a counter family's sum, that sum's rate per
// simulated second, or the heatmap's row-window peak. Everything they
// read is seed-deterministic and everything they produce is stamped
// with simulated time, so the alert stream is byte-identical across
// runs and across -parallel worker counts.

// watchpoint fires once when its value first exceeds threshold and
// re-arms once the value falls back to it or below.
type watchpoint struct {
	name string
	// expr is the condition as alerts print it.
	expr string
	// family is the counter family summed; "" reads the heatmap's
	// row-window peak instead. A family that is not registered is
	// skipped without touching the watchpoint's state.
	family string
	// rate compares the sum's change per simulated second since the
	// previous tick; the first observation and any clock rewind only
	// record the sum.
	rate      bool
	threshold float64
}

// watchpoints is the stock set, in evaluation order: row pressure past
// the minimum flip threshold (§4.1), TRR neutralizations, NX-hugepage
// split onset (§4.2.3), applied flips and host machine checks.
var watchpoints = [...]watchpoint{
	{name: "dram-row-pressure", expr: "dram.row_window_activations > 120000", threshold: 120_000},
	{name: "trr-neutralizing", expr: "dram_trr_neutralized_total > 0", family: "dram_trr_neutralized_total"},
	{name: "ept-split-onset", expr: "rate(ept_splits_total) > 0", family: "ept_splits_total", rate: true},
	{name: "flips-applied", expr: "dram_flips_total > 0", family: "dram_flips_total"},
	{name: "host-machine-check", expr: "host_machine_checks_total > 0", family: "host_machine_checks_total"},
}

// Alert is one fired watchpoint.
type Alert struct {
	// Rule and Expr identify what fired; Unit tags the plan unit the
	// alert came from ("" for a single campaign).
	Rule string `json:"rule"`
	Expr string `json:"expr"`
	Unit string `json:"unit,omitempty"`
	// SimSeconds is when, on the simulated clock.
	SimSeconds float64 `json:"t"`
	// Value is the observed value that crossed the threshold.
	Value float64 `json:"value"`
}

// RuleCount is a per-rule fired total, sorted by rule name.
type RuleCount struct {
	Rule  string `json:"rule"`
	Count uint64 `json:"count"`
}

// AlertsSnapshot is the JSON form served at /api/alerts and embedded
// in run artifacts. Slices are always non-nil.
type AlertsSnapshot struct {
	// Total counts every alert ever fired (Recent is bounded).
	Total uint64 `json:"total"`
	// ByRule breaks the total down per rule.
	ByRule []RuleCount `json:"byRule"`
	// Recent is the bounded alert ring, oldest first.
	Recent []Alert `json:"recent"`
}

// watchState tracks one watchpoint's trigger and rate memory between
// ticks.
type watchState struct {
	active  bool
	prevVal float64
	prevT   float64
	hasPrev bool
}
