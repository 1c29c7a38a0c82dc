package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"hyperhammer/internal/inspect"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/trace"
)

// planRun executes a representative multi-experiment plan (the
// hh-tables -short -all shape, minus the two slowest campaigns) at the
// given worker count with the full telemetry plane attached, and
// returns everything an artifact would be built from: the rendered
// results, the final metrics snapshot, the profile, and the raw span
// stream.
func planRun(t *testing.T, parallel int) (results []byte, snap metrics.Snapshot, prof *profile.Profile, spans, inspection []byte) {
	t.Helper()
	var spanBuf bytes.Buffer
	o := shortOpts()
	o.Parallel = parallel
	o.Trace = trace.New(&spanBuf, 0)
	o.Metrics = metrics.New()
	o.Inspect = inspect.New()

	p := NewPlan(o)
	profiler := profile.NewBuilder(o.Metrics)
	p.SetProfiler(profiler)

	t1 := p.Table1()
	f3 := p.Figure3()
	dd := p.DRAMDig()
	mit := p.Mitigation()
	xen := p.Xen()
	bal := p.Balloon()
	ecc := p.ECC()
	mh := p.Multihit()
	sd := p.AblationSidedness()
	ne := p.AblationNoExhaust()
	an := p.Analysis(t1)
	if err := p.Run(); err != nil {
		t.Fatalf("plan run (parallel=%d): %v", parallel, err)
	}

	out, err := json.Marshal(map[string]any{
		"table1":    t1.Get(),
		"figure3":   f3.Get(),
		"dramdig":   dd.Get(),
		"mitigate":  mit.Get(),
		"xen":       xen.Get(),
		"balloon":   bal.Get(),
		"ecc":       ecc.Get(),
		"multihit":  mh.Get(),
		"sidedness": sd.Get(),
		"noexhaust": ne.Get(),
		"analysis":  an.Get(),
	})
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	// The three introspection sections marshal exactly as a run
	// artifact would embed them.
	insp, err := json.Marshal(map[string]any{
		"heatmap": o.Inspect.HeatmapSnapshot(),
		"census":  o.Inspect.CensusSnapshot(),
		"alerts":  o.Inspect.AlertsSnapshot(),
	})
	if err != nil {
		t.Fatalf("marshal inspection: %v", err)
	}
	return out, o.Metrics.Snapshot(), profiler.Snapshot(), spanBuf.Bytes(), insp
}

// TestParallelMatchesSequential is the determinism gate in miniature:
// the same plan at -parallel 1 and -parallel 4 must produce
// byte-identical results, metrics, profiles, and span streams. Run
// under -race this also exercises the scheduler's concurrency.
//
// Metrics compare after StripHost, exactly as artifact builders
// snapshot them: the sched_* families are real host observations
// (worker count, queue waits) and legitimately differ across
// -parallel — that host view belongs to the artifact's plan section,
// not its deterministic metrics section.
func TestParallelMatchesSequential(t *testing.T) {
	seqRes, seqSnap, seqProf, seqSpans, seqInsp := planRun(t, 1)
	parRes, parSnap, parProf, parSpans, parInsp := planRun(t, 4)

	if !bytes.Equal(seqRes, parRes) {
		t.Errorf("results differ between parallel 1 and 4:\nseq: %s\npar: %s", seqRes, parRes)
	}
	// The live registry must carry scheduler telemetry before the
	// strip (the /metrics satellite) ...
	for _, snap := range []metrics.Snapshot{seqSnap, parSnap} {
		if !hasSample(snap.Counters, "sched_units_total") {
			t.Error("sched_units_total missing from live snapshot")
		}
		if !hasSample(snap.Gauges, "sched_workers") {
			t.Error("sched_workers missing from live snapshot")
		}
		found := false
		for _, h := range snap.Histograms {
			if h.Name == "sched_queue_wait_seconds" {
				found = true
			}
		}
		if !found {
			t.Error("sched_queue_wait_seconds missing from live snapshot")
		}
	}
	// ... and byte-identity holds on the stripped view.
	seqSnapJSON, _ := json.Marshal(seqSnap.StripHost())
	parSnapJSON, _ := json.Marshal(parSnap.StripHost())
	if !bytes.Equal(seqSnapJSON, parSnapJSON) {
		t.Errorf("metrics snapshots differ:\nseq: %s\npar: %s", seqSnapJSON, parSnapJSON)
	}
	seqProfJSON, _ := json.Marshal(seqProf)
	parProfJSON, _ := json.Marshal(parProf)
	if !bytes.Equal(seqProfJSON, parProfJSON) {
		t.Errorf("profiles differ:\nseq: %s\npar: %s", seqProfJSON, parProfJSON)
	}
	if !bytes.Equal(seqSpans, parSpans) {
		t.Errorf("span streams differ (%d vs %d bytes)", len(seqSpans), len(parSpans))
	}
	if !bytes.Equal(seqInsp, parInsp) {
		t.Errorf("introspection snapshots differ:\nseq: %s\npar: %s", seqInsp, parInsp)
	}
}

// TestPlanErrorPropagates checks that a failing unit surfaces its
// error from Run and that units before it still deliver.
func TestPlanErrorPropagates(t *testing.T) {
	o := shortOpts()
	o.Parallel = 4
	p := NewPlan(o)
	delivered := 0
	addTyped(p, "ok",
		func(Options) (int, error) { return 1, nil },
		func(int) { delivered++ })
	addTyped(p, "boom",
		func(Options) (int, error) { return 0, errBoom },
		func(int) { t.Error("failing unit must not be delivered") })
	finals := 0
	p.finally(func() error { finals++; return nil })
	if err := p.Run(); err != errBoom {
		t.Fatalf("Run error = %v, want errBoom", err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1", delivered)
	}
	if finals != 0 {
		t.Errorf("finals ran despite error: %d", finals)
	}
}

// hasSample reports whether a sample list carries the named family.
func hasSample(samples []metrics.Sample, name string) bool {
	for _, s := range samples {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestPlanHostSchedule: after Run, the plan exposes the host-cost
// schedule — every unit timed and delivered on the effective pool —
// and PlanReport derives a non-empty critical path and sane
// efficiency figures. Before any run both are safely empty.
func TestPlanHostSchedule(t *testing.T) {
	o := shortOpts()
	o.Parallel = 2
	p := NewPlan(o)
	if p.Schedule() != nil {
		t.Fatal("schedule non-nil before run")
	}
	if r := p.PlanReport(); r == nil || len(r.Units) != 0 {
		t.Fatalf("pre-run report = %+v, want empty", r)
	}
	for range [4]int{} {
		addTyped(p, "unit",
			func(Options) (int, error) { return 1, nil },
			func(int) {})
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	sc := p.Schedule()
	if sc == nil || sc.Workers != 2 || len(sc.Units) != 4 {
		t.Fatalf("schedule = %+v", sc)
	}
	for _, u := range sc.Units {
		if !u.Started || !u.Delivered {
			t.Fatalf("unit %d not fully timed: %+v", u.Index, u)
		}
	}
	r := p.PlanReport()
	if len(r.CriticalPath) == 0 {
		t.Error("critical path empty after a successful run")
	}
	if r.MaxSpeedup <= 0 || r.ActualSpeedup <= 0 || r.Efficiency <= 0 {
		t.Errorf("speedup figures not positive: max=%v actual=%v eff=%v",
			r.MaxSpeedup, r.ActualSpeedup, r.Efficiency)
	}
	if len(r.WorkerBusySeconds) != 2 {
		t.Errorf("WorkerBusySeconds = %v, want 2 rows", r.WorkerBusySeconds)
	}
}

var errBoom = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }
