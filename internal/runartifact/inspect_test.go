package runartifact

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/inspect"
	"hyperhammer/internal/metrics"
)

// inspectedArtifact builds an artifact carrying the three
// introspection sections, fed through a real inspector the way the
// CLIs do. Varying act perturbs one heatmap cell.
func inspectedArtifact(t *testing.T, act int64) *Artifact {
	t.Helper()
	reg := metrics.New()
	reg.Counter("dram_flips_total", "", "direction", "1to0").Add(2)
	ins := inspect.New()
	ins.BindMachine(2, 2048)
	ins.SetMetrics(reg)
	ins.SetCensusFunc(func() inspect.Census {
		return inspect.Census{
			SimSeconds: 5,
			VMs:        1,
			EPT:        inspect.EPTCensus{Leaves4K: 100, Leaves2M: 3, Splits: 2},
			Buddy:      inspect.BuddyCensus{FreePages: 5000, NoiseUnmovable: 40},
			Phys:       inspect.PhysCensus{FlipsApplied: 2},
		}
	})
	ins.RecordRowActivations(0, 100, act)
	ins.RecordRowActivations(1, 2000, 130_000) // trips dram-row-pressure
	ins.RecordFlip(1, 2000)
	ins.RecordFlip(1, 2000)
	ins.Evaluate(5 * time.Second) // fires pressure + flips-applied

	a := New("hyperhammer", 4, "short")
	a.SimSeconds = 5
	a.Metrics = reg.Snapshot()
	a.SetInspector(ins)
	return a
}

// TestInspectSectionsRoundTrip checks heatmap, census, and alerts
// survive a write/read cycle byte-exactly.
func TestInspectSectionsRoundTrip(t *testing.T) {
	a := inspectedArtifact(t, 500)
	a.CreatedAt = "2026-08-06T00:00:00Z"
	path := filepath.Join(t.TempDir(), "run.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Heatmap, got.Heatmap) ||
		!reflect.DeepEqual(a.Census, got.Census) ||
		!reflect.DeepEqual(a.Alerts, got.Alerts) {
		t.Error("introspection sections diverged through the round trip")
	}
	if got.Heatmap == nil || got.Heatmap.TotalActivations != 130_500 {
		t.Errorf("heatmap = %+v", got.Heatmap)
	}
}

// TestInspectSelfCompareIsZero is the acceptance check for the new
// sections: two same-seed runs diff to exactly zero drift on heatmap,
// census, and alerts at zero tolerance.
func TestInspectSelfCompareIsZero(t *testing.T) {
	a := inspectedArtifact(t, 500)
	b := inspectedArtifact(t, 500)
	d := Compare(a, b, Tolerances{})
	if d.Regressed() || d.Flagged != 0 {
		t.Fatalf("same-seed introspection diverged:\n%s", d.Table(true))
	}
	kinds := map[string]bool{}
	for _, row := range d.Deltas {
		kinds[row.Kind] = true
		if row.Delta != 0 {
			t.Errorf("nonzero delta: %+v", row)
		}
	}
	for _, k := range []string{"heatmap", "census", "alerts"} {
		if !kinds[k] {
			t.Errorf("no %s figures compared", k)
		}
	}
}

// TestInspectBucketDriftFlagged checks a single perturbed heatmap cell
// is caught: the totals move and the grid fingerprint flips even when
// per-bank sums would round away.
func TestInspectBucketDriftFlagged(t *testing.T) {
	a := inspectedArtifact(t, 500)
	b := inspectedArtifact(t, 501)
	d := Compare(a, b, Tolerances{})
	if !d.Regressed() {
		t.Fatal("perturbed heatmap not flagged")
	}
	var fingerprintFlagged bool
	for _, row := range d.Deltas {
		if row.Kind == "heatmap" && strings.Contains(row.Key, "grid_fingerprint") && row.Flagged {
			fingerprintFlagged = true
		}
	}
	if !fingerprintFlagged {
		t.Errorf("grid_fingerprint did not flip:\n%s", d.Table(true))
	}
}

// TestInspectSectionsAbsentStaysCompatible checks artifacts without
// the sections (older producers) still compare cleanly against each
// other and asymmetrically against newer artifacts.
func TestInspectSectionsAbsentStaysCompatible(t *testing.T) {
	old1 := sampleArtifact(t, 60)
	old2 := sampleArtifact(t, 60)
	d := Compare(old1, old2, Tolerances{})
	for _, row := range d.Deltas {
		if row.Kind == "heatmap" || row.Kind == "census" || row.Kind == "alerts" {
			t.Errorf("sectionless artifacts grew a %s figure: %+v", row.Kind, row)
		}
	}
	// One side carrying sections: the comparison runs and flags the gap
	// instead of crashing or silently skipping.
	vNew := inspectedArtifact(t, 500)
	asym := Compare(old1, vNew, Tolerances{})
	var sawNewKind bool
	for _, row := range asym.Deltas {
		if row.Kind == "heatmap" || row.Kind == "census" || row.Kind == "alerts" {
			sawNewKind = true
		}
	}
	if !sawNewKind {
		t.Error("asymmetric sections not surfaced in the diff")
	}
}
