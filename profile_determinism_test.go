package hyperhammer_test

import (
	"strings"
	"testing"

	"hyperhammer"
	"hyperhammer/internal/runartifact"
)

// campaignArtifact runs a small same-seed campaign with the full
// profiling stack wired the way `hyperhammer -artifact` wires it, and
// returns the run bundle.
func campaignArtifact(t *testing.T, seed uint64, hammerRounds int) *hyperhammer.RunArtifact {
	t.Helper()
	geo, err := hyperhammer.NewGeometry(hyperhammer.Geometry{
		Name:      "api-test-512M",
		Size:      512 * hyperhammer.MiB,
		BankMasks: hyperhammer.S1BankFunction(),
		RowShift:  18,
		RowBits:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hyperhammer.S1(seed)
	cfg.Geometry = geo
	cfg.BootNoisePages = 500

	rec := hyperhammer.NewTrace(nil, 0)
	reg := hyperhammer.NewMetrics()
	profiler := hyperhammer.NewCostProfiler(reg)
	rec.SetNamedSink("profile", profiler.Consume)
	cfg.Trace = rec
	cfg.Metrics = reg

	host, err := hyperhammer.NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attackCfg := hyperhammer.DefaultAttackConfig(hyperhammer.S1BankFunction())
	attackCfg.HostMemBits = 29
	attackCfg.IOVAMappings = 1500
	attackCfg.TargetBits = 2
	if hammerRounds > 0 {
		attackCfg.HammerRounds = hammerRounds
	}
	res, err := hyperhammer.RunCampaign(host, hyperhammer.CampaignConfig{
		Attack:      attackCfg,
		VM:          hyperhammer.VMConfig{MemSize: 384 * hyperhammer.MiB, VFIOGroups: 1, BootSplits: 16},
		MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	a := hyperhammer.NewRunArtifact("test", seed, "short")
	a.SimSeconds = reg.SimTime().Seconds()
	a.Outcome["attempts"] = float64(len(res.Attempts))
	a.Outcome["successes"] = float64(res.Successes)
	a.Metrics = reg.Snapshot()
	a.SetProfile(profiler.Snapshot())
	return a
}

// TestCampaignProfileDeterministic is the tentpole's determinism
// guarantee: two campaigns from the same seed produce byte-identical
// folded cost profiles, so hh-diff can compare runs at zero tolerance.
func TestCampaignProfileDeterministic(t *testing.T) {
	a := campaignArtifact(t, 9, 0)
	b := campaignArtifact(t, 9, 0)
	if a.Folded() != b.Folded() {
		t.Errorf("same-seed folded profiles differ:\n--- run A ---\n%s--- run B ---\n%s",
			a.Folded(), b.Folded())
	}
	if a.SimSeconds != b.SimSeconds {
		t.Errorf("sim seconds differ: %v vs %v", a.SimSeconds, b.SimSeconds)
	}
	d := runartifact.Compare(a, b, runartifact.Tolerances{})
	if d.Regressed() {
		t.Errorf("same-seed artifacts flagged:\n%s", d.Table(true))
	}
	if len(d.Deltas) == 0 {
		t.Fatal("no figures compared")
	}
	// The profile must actually cover the campaign's span tree.
	if !strings.Contains(a.Folded(), "attack.campaign;attack.attempt") {
		t.Errorf("folded profile missing campaign paths:\n%s", a.Folded())
	}
}

// TestCampaignProfileSeparatesBudgets: a changed hammer budget shows
// up as a flagged per-phase sim-time delta, which is how the perf gate
// catches behavior changes.
func TestCampaignProfileSeparatesBudgets(t *testing.T) {
	a := campaignArtifact(t, 9, 0)       // default 250k rounds
	b := campaignArtifact(t, 9, 400_000) // bigger budget, same seed
	d := runartifact.Compare(a, b, runartifact.Tolerances{})
	if !d.Regressed() {
		t.Fatal("different hammer budgets not flagged")
	}
	var phaseFlagged bool
	for _, row := range d.Deltas {
		if row.Kind == "phase" && row.Flagged {
			phaseFlagged = true
			break
		}
	}
	if !phaseFlagged {
		t.Errorf("no phase delta flagged:\n%s", d.Table(true))
	}
}
