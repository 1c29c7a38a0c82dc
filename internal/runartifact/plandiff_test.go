package runartifact

import (
	"strings"
	"testing"

	"hyperhammer/internal/profile"
	"hyperhammer/internal/sched"
)

// planFor builds a plan report over a 2-unit schedule whose run times
// scale with the given factor, simulating host-time noise between two
// runs of the same matrix.
func planFor(scale float64) *profile.PlanReport {
	return profile.BuildPlanReport(&sched.Schedule{
		Workers:     2,
		WallSeconds: 0.5 * scale,
		CPUSeconds:  0.8 * scale,
		Units: []sched.UnitTiming{
			{Index: 0, Name: "exp.a", Worker: 0, EndSeconds: 0.2 * scale,
				DeliverStartSeconds: 0.2 * scale, DeliverEndSeconds: 0.21 * scale,
				Started: true, Delivered: true},
			{Index: 1, Name: "exp.b", Worker: 1, EndSeconds: 0.5 * scale,
				DeliverStartSeconds: 0.5 * scale, DeliverEndSeconds: 0.5 * scale,
				Started: true, Delivered: true},
		},
	})
}

// TestPlanDiffDefaultToleratesHostNoise: under default tolerances two
// runs whose host timings differ 3x compare clean — durations are
// listed, not gated — while the shape rows still compare exactly.
func TestPlanDiffDefaultToleratesHostNoise(t *testing.T) {
	a, b := sampleArtifact(t, 60), sampleArtifact(t, 60)
	a.Plan = planFor(1)
	b.Plan = planFor(3)
	d := Compare(a, b, DefaultTolerances())
	if d.Regressed() {
		t.Fatalf("host noise flagged under defaults:\n%s", d.Table(true))
	}
	var planRows, hostRows int
	for _, row := range d.Deltas {
		if row.Kind != "plan" {
			continue
		}
		planRows++
		if strings.HasPrefix(row.Key, "host ") {
			hostRows++
		}
	}
	if planRows == 0 || hostRows == 0 {
		t.Fatalf("plan rows missing: plan=%d host=%d", planRows, hostRows)
	}
}

// TestPlanDiffShapeIsExact: a unit disappearing from the matrix is
// flagged even at default tolerances — shape compares exactly.
func TestPlanDiffShapeIsExact(t *testing.T) {
	a, b := sampleArtifact(t, 60), sampleArtifact(t, 60)
	a.Plan = planFor(1)
	shrunk := planFor(1)
	shrunk.Units = shrunk.Units[:1]
	b.Plan = shrunk
	d := Compare(a, b, DefaultTolerances())
	if !d.Regressed() {
		t.Fatal("dropped unit not flagged")
	}
	var unitsFlagged bool
	for _, row := range d.Deltas {
		if row.Kind == "plan" && row.Key == "units" && row.Flagged {
			unitsFlagged = true
		}
	}
	if !unitsFlagged {
		t.Fatalf("units row not flagged:\n%s", d.Table(true))
	}
}

// TestPlanDiffTightenedHostTolerance: a caller tightening the host
// tolerance (hh-diff -host-tol) turns real host drift into a failure.
func TestPlanDiffTightenedHostTolerance(t *testing.T) {
	a, b := sampleArtifact(t, 60), sampleArtifact(t, 60)
	a.Plan = planFor(1)
	b.Plan = planFor(3)
	tol := DefaultTolerances()
	tol.HostFrac, tol.HostAbs = 0.10, 0.001
	d := Compare(a, b, tol)
	if !d.Regressed() {
		t.Fatal("3x host drift not flagged at 10% tolerance")
	}
}

// TestPlanDiffOnlyWhenBothPresent: the plan section is skipped
// unless both artifacts carry one, so old baselines keep
// comparing clean against plan-bearing runs.
func TestPlanDiffOnlyWhenBothPresent(t *testing.T) {
	a, b := sampleArtifact(t, 60), sampleArtifact(t, 60)
	b.Plan = planFor(1)
	d := Compare(a, b, Tolerances{})
	for _, row := range d.Deltas {
		if row.Kind == "plan" {
			t.Fatalf("plan compared with one side missing: %+v", row)
		}
	}
	if d.Regressed() {
		t.Fatalf("one-sided plan flagged:\n%s", d.Table(true))
	}
}
