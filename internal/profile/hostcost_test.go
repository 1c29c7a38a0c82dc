package profile

import (
	"encoding/json"
	"strings"
	"testing"

	"hyperhammer/internal/sched"
)

// synthSchedule builds a hand-crafted 3-unit schedule on 2 workers:
//
//	u0: run 0.00→0.10 on w0, deliver 0.10→0.11
//	u1: run 0.00→0.40 on w1, deliver 0.40→0.42  (the long pole)
//	u2: run 0.10→0.20 on w0, deliver 0.42→0.43  (held 0.22s)
func synthSchedule() *sched.Schedule {
	return &sched.Schedule{
		Workers:     2,
		WallSeconds: 0.43,
		CPUSeconds:  0.60,
		Units: []sched.UnitTiming{
			{Index: 0, Name: "u0", Worker: 0, StartSeconds: 0, EndSeconds: 0.10,
				DeliverStartSeconds: 0.10, DeliverEndSeconds: 0.11, Started: true, Delivered: true},
			{Index: 1, Name: "u1", Worker: 1, StartSeconds: 0, EndSeconds: 0.40,
				DeliverStartSeconds: 0.40, DeliverEndSeconds: 0.42, Started: true, Delivered: true},
			{Index: 2, Name: "u2", Worker: 0, StartSeconds: 0.10, EndSeconds: 0.20,
				DeliverStartSeconds: 0.42, DeliverEndSeconds: 0.43, Started: true, Delivered: true},
		},
	}
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

// TestBuildPlanReportMath checks the critical-path model on a
// hand-checkable schedule.
func TestBuildPlanReportMath(t *testing.T) {
	r := BuildPlanReport(synthSchedule())
	// Sequential estimate: (0.10+0.01) + (0.40+0.02) + (0.10+0.01).
	approx(t, "SequentialSeconds", r.SequentialSeconds, 0.64)
	// Chains: u0 = 0.10 + (0.01+0.02+0.01); u1 = 0.40 + (0.02+0.01);
	// u2 = 0.10 + 0.01. u1 is critical.
	approx(t, "u0 chain", r.Units[0].ChainSeconds, 0.14)
	approx(t, "u1 chain", r.Units[1].ChainSeconds, 0.43)
	approx(t, "u2 chain", r.Units[2].ChainSeconds, 0.11)
	approx(t, "CriticalPathSeconds", r.CriticalPathSeconds, 0.43)
	if !r.Units[1].Critical || r.Units[0].Critical || r.Units[2].Critical {
		t.Fatalf("critical flags wrong: %+v", r.Units)
	}
	// Critical path: u1's run, then the deliveries it gates (u1, u2).
	if want := []string{"u1", "u2"}; len(r.CriticalPath) != 2 ||
		r.CriticalPath[0] != want[0] || r.CriticalPath[1] != want[1] {
		t.Fatalf("CriticalPath = %v, want %v", r.CriticalPath, want)
	}
	approx(t, "u0 slack", r.Units[0].SlackSeconds, 0.43-0.14)
	approx(t, "u1 slack", r.Units[1].SlackSeconds, 0)
	approx(t, "MaxSpeedup", r.MaxSpeedup, 0.64/0.43)
	approx(t, "ActualSpeedup", r.ActualSpeedup, 0.64/0.43)
	approx(t, "Efficiency", r.Efficiency, 0.64/0.43/2)
	approx(t, "BusySeconds", r.BusySeconds, 0.60)
	approx(t, "DeliverSeconds", r.DeliverSeconds, 0.04)
	approx(t, "u2 hold", r.Units[2].DeliverHoldSeconds, 0.22)
	if len(r.WorkerBusySeconds) != 2 {
		t.Fatalf("WorkerBusySeconds = %v", r.WorkerBusySeconds)
	}
	approx(t, "w0 busy", r.WorkerBusySeconds[0], 0.20)
	approx(t, "w1 busy", r.WorkerBusySeconds[1], 0.40)
}

// TestEmptyPlanReportJSON: slices marshal as [], never null — the obs
// endpoint serves this shape before any batch runs.
func TestEmptyPlanReportJSON(t *testing.T) {
	for _, r := range []*PlanReport{EmptyPlanReport(), BuildPlanReport(nil)} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "null") {
			t.Fatalf("empty report marshals null: %s", b)
		}
		if r.Version != PlanVersion {
			t.Fatalf("Version = %d", r.Version)
		}
	}
}

// TestRenderPlan: the single renderer emits every section and flags
// the critical unit.
func TestRenderPlan(t *testing.T) {
	var sb strings.Builder
	if err := RenderPlan(&sb, BuildPlanReport(synthSchedule())); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"plan: 3 units on 2 workers",
		"gantt",
		"workers:",
		"top slack",
		"critical path: u1 → u2",
		"* u1",
		"efficiency",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestRenderPlanEmpty: rendering an empty or nil report is safe.
func TestRenderPlanEmpty(t *testing.T) {
	var sb strings.Builder
	if err := RenderPlan(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0 units") {
		t.Fatalf("empty render:\n%s", sb.String())
	}
}

// TestBuildPlanReportFailedBatch: unstarted units get zero chains and
// don't crash the analysis.
func TestBuildPlanReportFailedBatch(t *testing.T) {
	sc := &sched.Schedule{
		Workers:     1,
		WallSeconds: 0.05,
		Units: []sched.UnitTiming{
			{Index: 0, Name: "ok", Worker: 0, StartSeconds: 0, EndSeconds: 0.05,
				DeliverStartSeconds: 0.05, DeliverEndSeconds: 0.05, Started: true, Delivered: true},
			{Index: 1, Name: "never-ran", Worker: -1},
		},
	}
	r := BuildPlanReport(sc)
	if len(r.Units) != 2 || r.Units[1].Started || r.Units[1].RunSeconds != 0 {
		t.Fatalf("failed-batch report: %+v", r.Units)
	}
	if len(r.CriticalPath) == 0 {
		t.Fatal("critical path empty even though a unit ran")
	}
}
