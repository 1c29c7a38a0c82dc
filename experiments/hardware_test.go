package experiments

import "testing"

// The TRRespass shape: TRR kills the paper's narrow pattern but not
// the many-sided one; without TRR both work.
func TestTRRExperiment(t *testing.T) {
	res := runPlan(t, shortOpts(), (*Plan).TRR)
	checkDigest(t, *res, "adac8b3c81aa895c")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	get := func(dimm, pattern string) TRRRow {
		for _, r := range res.Rows {
			if r.DIMM == dimm && r.Pattern == pattern {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", dimm, pattern)
		return TRRRow{}
	}
	if get("no TRR", "single-sided-2").Flips == 0 {
		t.Error("single-sided found nothing without TRR")
	}
	if got := get("TRR (4 slots)", "single-sided-2").Flips; got != 0 {
		t.Errorf("TRR let %d single-sided flips through", got)
	}
	if get("TRR (4 slots)", "many-sided-8").Flips == 0 {
		t.Error("many-sided pattern failed to overwhelm the TRR tracker")
	}
}

func TestECCExperiment(t *testing.T) {
	res := runPlan(t, shortOpts(), (*Plan).ECC)
	checkDigest(t, *res, "db6c6f709be77b72")
	if res.FlipsNonECC == 0 {
		t.Fatal("no flips without ECC; fault model too sparse")
	}
	if res.FlipsECC != 0 {
		t.Errorf("ECC host exposed %d flips to the guest", res.FlipsECC)
	}
	if res.Corrected == 0 && res.Detected == 0 {
		t.Error("ECC host recorded no error activity despite hammering")
	}
}

// The countermeasure trade-off: with NX hugepages the DoS fails and
// splits abound (HyperHammer's precondition); without it the DoS
// succeeds and no splits happen.
func TestMultihitExperiment(t *testing.T) {
	res := runPlan(t, shortOpts(), (*Plan).Multihit)
	checkDigest(t, *res, "f250e7445e539240")
	if res.DoSWithMitigation {
		t.Error("DoS succeeded despite the countermeasure")
	}
	if !res.DoSWithoutMitigation {
		t.Error("DoS failed on an unmitigated affected CPU")
	}
	if res.SplitsWithMitigation < 64 {
		t.Errorf("splits with mitigation = %d, want >= 64 (one per exec'd hugepage)", res.SplitsWithMitigation)
	}
	if res.SplitsWithoutMitigation != 0 {
		t.Errorf("splits without mitigation = %d, want 0", res.SplitsWithoutMitigation)
	}
}
