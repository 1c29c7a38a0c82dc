package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

func shortOpts() Options {
	return Options{Seed: 61, Short: true, MaxAttempts: 40}
}

// runPlan registers one experiment on a fresh plan over o, runs it and
// returns the experiment's result.
func runPlan[T any](t *testing.T, o Options, register func(*Plan) *Future[T]) T {
	t.Helper()
	p := NewPlan(o)
	f := register(p)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return f.Get()
}

// checkDigest pins an experiment's exact figures: the first 8 bytes of
// the SHA-256 of its result's %+v rendering must equal want. The
// property checks around each call say what the figures mean; this
// says they did not move. A deliberate change to the model re-records
// want from the failure message.
func checkDigest(t *testing.T, res any, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	if got := hex.EncodeToString(sum[:8]); got != want {
		t.Errorf("result digest = %s, want %s: a simulated figure moved\n%+v", got, want, res)
	}
}

func TestTable1Short(t *testing.T) {
	res := runPlan(t, shortOpts(), (*Plan).Table1)
	checkDigest(t, *res, "4376d08636aee041")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	s1, s2 := res.Rows[0], res.Rows[1]
	if s1.System != SystemS1 || s2.System != SystemS2 {
		t.Fatal("row order wrong")
	}
	// The Table 1 shape: S2 finds more flips, S1 keeps a much higher
	// stable fraction.
	if s1.Total == 0 || s2.Total == 0 {
		t.Fatalf("no flips: %+v %+v", s1, s2)
	}
	if s2.Total <= s1.Total {
		t.Errorf("S2 total %d <= S1 total %d", s2.Total, s1.Total)
	}
	if s1.Total > 0 && s2.Total > 0 {
		f1 := float64(s1.Stable) / float64(s1.Total)
		f2 := float64(s2.Stable) / float64(s2.Total)
		if f1 <= f2 {
			t.Errorf("stable fractions: S1 %.2f <= S2 %.2f", f1, f2)
		}
	}
	for _, row := range res.Rows {
		if row.OneToZero+row.ZeroToOne != row.Total {
			t.Errorf("%s: direction sum mismatch", row.System)
		}
		if row.Exploitable > row.Total {
			t.Errorf("%s: exploitable > total", row.System)
		}
		if row.Time <= 0 {
			t.Errorf("%s: no profiling time", row.System)
		}
	}
	if out := res.Table().String(); !strings.Contains(out, "Table 1") {
		t.Error("table rendering broken")
	}
}

func TestFigure3Short(t *testing.T) {
	res := runPlan(t, shortOpts(), (*Plan).Figure3)
	checkDigest(t, *res, "11df71dbe27b402b")
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Every system's noise must eventually drop below 1,024; S3 must
	// start with more noise and take longer than S1.
	for _, s := range res.Series {
		if len(s.Points) < 3 {
			t.Fatalf("%s: only %d points", s.System, len(s.Points))
		}
		if drop := res.DropBelow(s.System, res.Threshold1024); drop < 0 {
			t.Errorf("%s never dropped below 1024 (final %d)",
				s.System, s.Points[len(s.Points)-1].NoisePages)
		}
	}
	s1Start := res.Series[0].Points[0].NoisePages
	s3Start := res.Series[2].Points[0].NoisePages
	if s3Start <= s1Start {
		t.Errorf("S3 start %d <= S1 start %d", s3Start, s1Start)
	}
	if res.DropBelow(SystemS3, 1024) <= res.DropBelow(SystemS1, 1024) {
		t.Errorf("S3 dropped no later than S1 (%.0fs vs %.0fs)",
			res.DropBelow(SystemS3, 1024), res.DropBelow(SystemS1, 1024))
	}
}

func TestTable2Short(t *testing.T) {
	res := runPlan(t, shortOpts(), (*Plan).Table2)
	checkDigest(t, *res, "78baa50d64328f73")
	if len(res.Rows) != 15 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Per-system: R_E grows with spray size at fixed B, and the reuse
	// ratios stay in range.
	for i := 0; i < len(res.Rows); i += 5 {
		small, large := res.Rows[i], res.Rows[i+1]
		if small.SprayBytes >= large.SprayBytes {
			t.Fatal("settings order wrong")
		}
		if large.RE() <= small.RE() {
			t.Errorf("%s: R_E did not grow with spray (%.2f -> %.2f)",
				small.System, small.RE(), large.RE())
		}
	}
	for _, row := range res.Rows {
		if row.Reused > row.Released || row.Reused > row.EPTPages {
			t.Errorf("impossible reuse: %+v", row)
		}
		if row.EPTPages == 0 {
			t.Errorf("%s: no EPT pages created", row.System)
		}
	}
}

func TestTable3Short(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	res := runPlan(t, shortOpts(), (*Plan).Table3)
	checkDigest(t, *res, "0d1e1581bf513b4b")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.AvgAttempt <= 0 {
			t.Errorf("%s: no attempt timing", row.System)
		}
		if row.Attempts == 0 || row.ProfiledBits == 0 {
			t.Errorf("%s: campaign did not run: %+v", row.System, row)
		}
	}
}

func TestAnalysis(t *testing.T) {
	res := runPlan(t, Options{Seed: 1}, func(p *Plan) *Future[*AnalysisResult] {
		return p.Analysis(Resolved[*Table1Result](nil))
	})
	checkDigest(t, *res, "1451e2a1699fac82")
	if res.Bound < 1.0/700 || res.Bound > 1.0/500 {
		t.Errorf("bound = %v", res.Bound)
	}
	if len(res.EndToEnd) != 2 {
		t.Fatalf("end-to-end rows = %d", len(res.EndToEnd))
	}
	// Paper: 192 days on S1, 137 on S2.
	d1 := res.EndToEnd[0].ExpectedTotal.Hours() / 24
	d2 := res.EndToEnd[1].ExpectedTotal.Hours() / 24
	if d1 < 180 || d1 > 205 {
		t.Errorf("S1 end-to-end = %.0f days, want ~192", d1)
	}
	if d2 < 128 || d2 > 146 {
		t.Errorf("S2 end-to-end = %.0f days, want ~137", d2)
	}
	if res.MonteCarlo > res.Bound*1.2 {
		t.Errorf("Monte Carlo %v above bound %v", res.MonteCarlo, res.Bound)
	}
}

func TestDRAMDigExperiment(t *testing.T) {
	res := runPlan(t, Options{Seed: 1}, (*Plan).DRAMDig)
	checkDigest(t, *res, "4d8a8e2432107482")
	for _, row := range res.Rows {
		if row.Banks != 32 {
			t.Errorf("%s: %d banks", row.System, row.Banks)
		}
		if !row.Matches || !row.THPCompatible {
			t.Errorf("%s: matches=%v thp=%v", row.System, row.Matches, row.THPCompatible)
		}
	}
}

func TestMitigationExperiment(t *testing.T) {
	res := runPlan(t, shortOpts(), (*Plan).Mitigation)
	checkDigest(t, *res, "69ef52f56520b0dc")
	if res.StockReleased != 8 {
		t.Errorf("stock released = %d, want 8", res.StockReleased)
	}
	if res.QuarantinedReleased != 0 {
		t.Errorf("quarantine leaked %d releases", res.QuarantinedReleased)
	}
	if res.NACKs != 8 {
		t.Errorf("NACKs = %d", res.NACKs)
	}
	if !res.LegitResizeOK {
		t.Error("quarantine broke legitimate resizes")
	}
}

func TestXenComparison(t *testing.T) {
	res := runPlan(t, shortOpts(), (*Plan).Xen)
	checkDigest(t, *res, "b295752837d86756")
	if res.XenRE() < 0.9 {
		t.Errorf("Xen reuse = %.2f, want near-total", res.XenRE())
	}
	if res.KVMRE() >= res.XenRE()/2 {
		t.Errorf("KVM-without-exhaustion reuse %.2f not clearly below Xen %.2f",
			res.KVMRE(), res.XenRE())
	}
}

func TestBalloonFeasibility(t *testing.T) {
	res := runPlan(t, shortOpts(), (*Plan).Balloon)
	checkDigest(t, *res, "9787f6c53782951d")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	mem, drained, undrained := res.Rows[0], res.Rows[1], res.Rows[2]
	if mem.Released == 0 || drained.Released == 0 {
		t.Fatal("nothing released")
	}
	// The Section 6 finding, quantified: the virtio-mem path reuses
	// released memory for EPT tables at a high rate; the balloon path
	// strands its releases behind the migratetype wall.
	if mem.RN() < 0.3 {
		t.Errorf("virtio-mem reuse = %.2f, expected high", mem.RN())
	}
	if drained.RN() > mem.RN()/3 {
		t.Errorf("balloon reuse %.3f not clearly below virtio-mem %.3f",
			drained.RN(), mem.RN())
	}
	// Draining can only help (or leave it at zero).
	if drained.Reused < undrained.Reused {
		t.Errorf("net drain reduced reuse: %d vs %d", drained.Reused, undrained.Reused)
	}
}

func TestAblations(t *testing.T) {
	o := shortOpts()

	side := runPlan(t, o, (*Plan).AblationSidedness)
	checkDigest(t, *side, "f38d545ed978bfa8")
	if side.ProfiledBits == 0 {
		t.Fatal("sidedness: no bits profiled")
	}
	if side.SingleSidedUsable != side.ProfiledBits || side.DoubleSidedUsable != 0 {
		t.Errorf("sidedness: single=%d double=%d of %d",
			side.SingleSidedUsable, side.DoubleSidedUsable, side.ProfiledBits)
	}

	ex := runPlan(t, o, (*Plan).AblationNoExhaust)
	checkDigest(t, *ex, "81f92cde06b851b7")
	if ex.WithExhaust.RN() <= ex.WithoutExhaust.RN() {
		t.Errorf("exhaustion did not help: %.2f vs %.2f",
			ex.WithExhaust.RN(), ex.WithoutExhaust.RN())
	}

	spray := runPlan(t, o, (*Plan).AblationSpraySize)
	checkDigest(t, *spray, "3302559440240e49")
	first, last := spray.Rows[0], spray.Rows[len(spray.Rows)-1]
	if last.RN() <= first.RN() {
		t.Errorf("spray sweep flat: %.2f -> %.2f", first.RN(), last.RN())
	}

	thp := runPlan(t, o, (*Plan).AblationTHP)
	checkDigest(t, *thp, "cf33f17c96411661")
	if thp.Low21PreservedWithTHP < 0.99 {
		t.Errorf("THP preservation = %.2f", thp.Low21PreservedWithTHP)
	}
	if thp.Low21PreservedWithoutTHP > 0.2 {
		t.Errorf("no-THP preservation = %.2f, should collapse", thp.Low21PreservedWithoutTHP)
	}
	if thp.FlipsWithoutTHP >= thp.FlipsWithTHP && thp.FlipsWithTHP > 0 {
		t.Errorf("THP-off profiling found %d flips vs %d with THP",
			thp.FlipsWithoutTHP, thp.FlipsWithTHP)
	}

	pcp := runPlan(t, o, (*Plan).AblationPCPNoise)
	checkDigest(t, *pcp, "60c337b184c1e9ac")
	if pcp.HeadroomSpray.Reused < pcp.ExactSpray.Reused {
		t.Errorf("headroom hurt reuse: %d vs %d",
			pcp.HeadroomSpray.Reused, pcp.ExactSpray.Reused)
	}
}

// The Section 5.3.1 sensitivity claim: shrinking the attacker's VM
// makes the attack monotonically and sharply slower.
func TestVMSizeSweep(t *testing.T) {
	res := VMSize(Options{Seed: 1})
	checkDigest(t, *res, "bbf6999d75e1e6c9")
	if len(res.Rows) < 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.GuestMem <= prev.GuestMem {
			t.Fatal("sweep not increasing")
		}
		if cur.Bound <= prev.Bound {
			t.Errorf("bound not increasing with VM size: %v -> %v", prev.Bound, cur.Bound)
		}
		if cur.ExpectedDays >= prev.ExpectedDays {
			t.Errorf("end-to-end estimate not decreasing with VM size: %v -> %v days",
				prev.ExpectedDays, cur.ExpectedDays)
		}
	}
	// The paper's 13 GiB configuration sits in the same months-long
	// regime as its own 192-day estimate (we use the exact 512·H/S
	// attempt count where the paper rounds to 512 flat).
	last := res.Rows[len(res.Rows)-1]
	if last.ExpectedDays < 200 || last.ExpectedDays > 320 {
		t.Errorf("13 GiB estimate = %.0f days, want months-long regime", last.ExpectedDays)
	}
	// Small tenants face substantially longer campaigns.
	first := res.Rows[0]
	if first.ExpectedDays < last.ExpectedDays*1.15 {
		t.Errorf("1 GiB estimate %.0f days not clearly above 13 GiB's %.0f",
			first.ExpectedDays, last.ExpectedDays)
	}
}
