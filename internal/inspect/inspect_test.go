package inspect

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/metrics"
)

// TestBucketBoundaries pins the row→bucket mapping at every supported
// geometry row count. RowShift is 18 on both evaluated machines, so
// RowBits 11 through 16 place the row index in physical address bits
// 18 through 33; 64 buckets divide every 2^rowBits evenly, so bucket
// edges must land exactly on rows/buckets multiples.
func TestBucketBoundaries(t *testing.T) {
	for rowBits := 11; rowBits <= 16; rowBits++ {
		rows := 1 << rowBits
		h := NewHeatmap(1, rows)
		per := rows / RowBuckets
		cases := []struct{ row, want int }{
			{0, 0},
			{per - 1, 0},
			{per, 1},
			{rows/2 - 1, RowBuckets/2 - 1},
			{rows / 2, RowBuckets / 2},
			{rows - per, RowBuckets - 1},
			{rows - 1, RowBuckets - 1},
		}
		for _, c := range cases {
			if got := h.bucketOf(c.row); got != c.want {
				t.Errorf("rowBits=%d: bucketOf(%d) = %d, want %d", rowBits, c.row, got, c.want)
			}
		}
		// Exact partition: every bucket must cover the same row count.
		counts := make([]int, RowBuckets)
		for r := 0; r < rows; r++ {
			counts[h.bucketOf(r)]++
		}
		for b, n := range counts {
			if n != per {
				t.Fatalf("rowBits=%d: bucket %d covers %d rows, want %d", rowBits, b, n, per)
			}
		}
	}
}

// TestBucketDegenerate covers out-of-range rows and unbound heatmaps.
func TestBucketDegenerate(t *testing.T) {
	h := NewHeatmap(0, 0)
	if got := h.bucketOf(5); got != 0 {
		t.Errorf("bucketOf on empty heatmap = %d, want 0", got)
	}
	h.resize(2, 100) // rows not a bucket multiple: formula must clamp
	if got := h.bucketOf(99); got != RowBuckets-1 {
		t.Errorf("bucketOf(last odd row) = %d, want %d", got, RowBuckets-1)
	}
	h.addActivations(7, 0, 1) // out-of-range bank: dropped, not a panic
	if h.totalAct != 0 {
		t.Errorf("out-of-range bank accumulated %d activations", h.totalAct)
	}
}

// TestHeatmapAccumulateAndAbsorb checks recording, totals, and that
// absorb is an elementwise sum with a max over window pressure.
func TestHeatmapAccumulateAndAbsorb(t *testing.T) {
	a := NewHeatmap(2, 128)
	b := NewHeatmap(2, 128)
	a.addActivations(0, 0, 100)
	a.addFlip(0, 0)
	b.addActivations(0, 0, 50)
	b.addActivations(1, 127, 300)
	b.addFlip(1, 127)
	a.absorb(b)
	if a.totalAct != 450 || a.totalFlips != 2 {
		t.Errorf("totals = (%d, %d), want (450, 2)", a.totalAct, a.totalFlips)
	}
	if a.maxRowWindow != 300 {
		t.Errorf("maxRowWindow = %d, want 300", a.maxRowWindow)
	}
	if a.act[0][0] != 150 || a.act[1][63] != 300 {
		t.Errorf("cells = %d, %d; want 150, 300", a.act[0][0], a.act[1][63])
	}
}

// regWith returns a registry with one counter set to v.
func regWith(t *testing.T, name string, v uint64) *metrics.Registry {
	t.Helper()
	r := metrics.New()
	r.Counter(name, "test").Add(v)
	return r
}

// TestStockWatchpoints pins the five watchpoints' names and conditions
// in evaluation order: alerts, artifacts and stored runs carry them.
// None reads a host figure such as the obs bus's drop total, which a
// wall-clock client sets.
func TestStockWatchpoints(t *testing.T) {
	want := [][2]string{
		{"dram-row-pressure", "dram.row_window_activations > 120000"},
		{"trr-neutralizing", "dram_trr_neutralized_total > 0"},
		{"ept-split-onset", "rate(ept_splits_total) > 0"},
		{"flips-applied", "dram_flips_total > 0"},
		{"host-machine-check", "host_machine_checks_total > 0"},
	}
	if len(watchpoints) != len(want) {
		t.Fatalf("%d watchpoints, want %d", len(watchpoints), len(want))
	}
	for i, w := range watchpoints {
		if w.name != want[i][0] || w.expr != want[i][1] {
			t.Errorf("watchpoint %d = %s %q, want %s %q", i, w.name, w.expr, want[i][0], want[i][1])
		}
	}
}

// TestWatchpointEdge checks a watchpoint fires once when its value
// first exceeds the threshold, stays quiet while it holds, and emits
// the alert event with its fields.
func TestWatchpointEdge(t *testing.T) {
	r := metrics.New()
	c := r.Counter("host_machine_checks_total", "test")
	ins := New()
	ins.SetMetrics(r)
	var events [][]any
	ins.SetEmit(func(kind string, kv ...any) {
		events = append(events, append([]any{kind}, kv...))
	})

	ins.Evaluate(1 * time.Second) // 0 > 0: no
	c.Add(2)
	ins.Evaluate(2 * time.Second) // 2 > 0: fire
	c.Add(1)
	ins.Evaluate(3 * time.Second) // still true: edge stays quiet
	s := ins.AlertsSnapshot()
	if s.Total != 1 {
		t.Fatalf("edge fired %d times, want 1", s.Total)
	}
	want := Alert{Rule: "host-machine-check", Expr: "host_machine_checks_total > 0", SimSeconds: 2, Value: 2}
	if s.Recent[0] != want {
		t.Errorf("alert = %+v, want %+v", s.Recent[0], want)
	}
	wantEvent := []any{"watchpoint.alert", "rule", "host-machine-check",
		"expr", "host_machine_checks_total > 0", "value", 2.0, "mode", "edge"}
	if len(events) != 1 || !reflect.DeepEqual(events[0], wantEvent) {
		t.Errorf("events = %v, want [%v]", events, wantEvent)
	}
}

// TestWatchpointRate checks the rate watchpoint compares the change per
// simulated second, skips its first observation and a clock rewind,
// and re-arms when the rate falls back to zero.
func TestWatchpointRate(t *testing.T) {
	r := metrics.New()
	c := r.Counter("ept_splits_total", "test")
	ins := New()
	ins.SetMetrics(r)

	c.Add(100)
	ins.Evaluate(1 * time.Second) // first observation: no rate yet
	c.Add(10)
	ins.Evaluate(3 * time.Second) // Δ10 over 2s = 5/s > 0: fire
	ins.Evaluate(4 * time.Second) // Δ0: clears
	c.Add(3)
	ins.Evaluate(2 * time.Second) // rewind: records only
	c.Add(4)
	ins.Evaluate(4 * time.Second) // Δ4 over 2s = 2/s: fires again
	s := ins.AlertsSnapshot()
	if s.Total != 2 {
		t.Fatalf("rate watchpoint fired %d times, want 2: %+v", s.Total, s.Recent)
	}
	if s.Recent[0].Value != 5 || s.Recent[0].SimSeconds != 3 || s.Recent[1].Value != 2 {
		t.Errorf("alerts = %+v, want 5/s at t=3 then 2/s", s.Recent)
	}
}

// TestWatchpointHeatmapValue checks dram-row-pressure reads the
// heatmap's row-window peak, and that without a registry the family
// watchpoints are skipped rather than read as zero.
func TestWatchpointHeatmapValue(t *testing.T) {
	ins := New()
	ins.BindMachine(2, 2048)
	ins.RecordRowActivations(1, 700, 150_000)
	ins.Evaluate(time.Second)
	s := ins.AlertsSnapshot()
	if s.Total != 1 || s.Recent[0].Rule != "dram-row-pressure" || s.Recent[0].Value != 150_000 {
		t.Fatalf("alerts = %+v, want one dram-row-pressure at 150000", s.Recent)
	}
}

// TestWatchpointFamilySum checks a watchpoint reads its family's sum
// across labeled series.
func TestWatchpointFamilySum(t *testing.T) {
	r := metrics.New()
	r.Counter("dram_flips_total", "test", "direction", "1to0").Add(3)
	r.Counter("dram_flips_total", "test", "direction", "0to1").Add(4)
	ins := New()
	ins.SetMetrics(r)
	ins.Evaluate(time.Second)
	s := ins.AlertsSnapshot()
	if s.Total != 1 || s.Recent[0].Rule != "flips-applied" || s.Recent[0].Value != 7 {
		t.Fatalf("alerts = %+v, want one flips-applied at the summed 7", s.Recent)
	}
}

// TestAbsorbTagsAndMerges checks scoped inspectors fold: heatmaps sum,
// censuses append in call order with the unit tag, alert totals merge,
// and absorbed alerts inherit the unit name.
func TestAbsorbTagsAndMerges(t *testing.T) {
	parent := New()
	for i, unit := range []string{"u1", "u2"} {
		child := parent.Scoped()
		child.BindMachine(1, 128)
		child.RecordRowActivations(0, 0, int64(100*(i+1)))
		child.SetMetrics(regWith(t, "dram_flips_total", 1))
		child.SetCensusFunc(func() Census { return Census{VMs: i + 1} })
		child.Evaluate(time.Second) // fires flips-applied (default rules)
		parent.Absorb(child, unit)
	}
	heat := parent.HeatmapSnapshot()
	if heat.TotalActivations != 300 {
		t.Errorf("absorbed activations = %d, want 300", heat.TotalActivations)
	}
	cs := parent.CensusSnapshot()
	if len(cs.Censuses) != 2 || cs.Censuses[0].Unit != "u1" || cs.Censuses[1].Unit != "u2" {
		t.Fatalf("censuses = %+v, want tagged u1 then u2", cs.Censuses)
	}
	if cs.Censuses[1].Census.VMs != 2 {
		t.Errorf("u2 census VMs = %d, want 2", cs.Censuses[1].Census.VMs)
	}
	as := parent.AlertsSnapshot()
	if as.Total != 2 {
		t.Fatalf("absorbed alert total = %d, want 2", as.Total)
	}
	for _, a := range as.Recent {
		if a.Unit == "" {
			t.Errorf("absorbed alert lost its unit tag: %+v", a)
		}
	}
}

// TestNilInspectorJSONContract checks the nil receiver serves
// schema-valid snapshots: arrays [], never null.
func TestNilInspectorJSONContract(t *testing.T) {
	var ins *Inspector
	ins.BindMachine(2, 2) // all no-ops
	ins.RecordRowActivations(0, 0, 1)
	ins.RecordFlip(0, 0)
	ins.Evaluate(time.Second)
	ins.Absorb(nil, "x")
	for name, v := range map[string]any{
		"heatmap": ins.HeatmapSnapshot(),
		"census":  ins.CensusSnapshot(),
		"alerts":  ins.AlertsSnapshot(),
	} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if strings.Contains(string(b), "null") {
			t.Errorf("%s snapshot serializes null: %s", name, b)
		}
	}
}

// TestAlertRingBound checks the ring keeps the newest alerts while
// totals keep counting: a split every other tick fires and clears the
// rate watchpoint 300 times.
func TestAlertRingBound(t *testing.T) {
	r := metrics.New()
	c := r.Counter("ept_splits_total", "test")
	ins := New()
	ins.SetMetrics(r)
	for i := 1; i <= 600; i++ {
		if i%2 == 0 {
			c.Inc()
		}
		ins.Evaluate(time.Duration(i) * time.Second)
	}
	s := ins.AlertsSnapshot()
	if s.Total != 300 || len(s.Recent) != maxAlerts {
		t.Fatalf("total=%d recent=%d, want 300 and %d", s.Total, len(s.Recent), maxAlerts)
	}
	if s.Recent[0].SimSeconds != 90 || s.Recent[maxAlerts-1].SimSeconds != 600 {
		t.Errorf("ring holds t=%g..%g, want 90..600", s.Recent[0].SimSeconds, s.Recent[maxAlerts-1].SimSeconds)
	}
}

// TestRenderersCoverSnapshots sanity-checks the shared ASCII renderers
// on populated snapshots (hh-top and hh-inspect both consume these).
func TestRenderersCoverSnapshots(t *testing.T) {
	ins := New()
	ins.BindMachine(2, 128)
	ins.SetMetrics(metrics.New())
	ins.RecordRowActivations(0, 5, 1000)
	ins.RecordFlip(1, 100)
	ins.SetCensusFunc(func() Census {
		return Census{SimSeconds: 1.5, Geometry: "test", VMs: 1}
	})
	ins.Evaluate(time.Second)

	heat := RenderHeatmap(ins.HeatmapSnapshot())
	if !strings.Contains(heat, "bank  0") || !strings.Contains(heat, "F") {
		t.Errorf("heatmap render missing banks or flip marker:\n%s", heat)
	}
	cens := RenderCensus(ins.CensusSnapshot())
	if !strings.Contains(cens, "(host)") {
		t.Errorf("census render missing live host row:\n%s", cens)
	}
	if out := RenderAlerts(ins.AlertsSnapshot()); !strings.Contains(out, "alerts") {
		t.Errorf("alerts render: %q", out)
	}
	// Empty snapshots must render, not panic.
	RenderHeatmap(HeatmapSnapshot{Activations: [][]int64{}, Flips: [][]int64{}})
	RenderCensus(CensusSnapshot{})
	RenderAlerts(AlertsSnapshot{})
}
