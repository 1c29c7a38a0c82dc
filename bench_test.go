// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the Section 6 analyses and the DESIGN.md ablations.
// Each benchmark runs the corresponding experiment end to end on the
// simulated machines and reports the headline quantities as custom
// metrics, logging the fully rendered table on the first iteration.
//
//	go test -bench=. -benchmem            # full paper scale
//	go test -bench=. -benchmem -short     # reduced 4 GiB scale
//
// The durations these benchmarks report are *host CPU* costs of the
// simulation; the paper's wall-clock quantities (profiling hours,
// minutes per attempt) are simulated time and appear in the logged
// tables and metrics.
package hyperhammer_test

import (
	"strings"
	"testing"

	"hyperhammer/experiments"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Short: testing.Short()}
}

// run registers one experiment on a fresh plan over o, runs it and
// returns the experiment's result.
func run[T any](b *testing.B, o experiments.Options, register func(*experiments.Plan) *experiments.Future[T]) T {
	b.Helper()
	p := experiments.NewPlan(o)
	f := register(p)
	if err := p.Run(); err != nil {
		b.Fatal(err)
	}
	return f.Get()
}

// analysis registers the Section 5.3 analysis on the paper's own
// Table 1 inputs.
func analysis(p *experiments.Plan) *experiments.Future[*experiments.AnalysisResult] {
	return p.Analysis(experiments.Resolved[*experiments.Table1Result](nil))
}

// BenchmarkTable1MemoryProfiling reproduces Table 1: profile the
// attacker VM's memory on S1 and S2.
func BenchmarkTable1MemoryProfiling(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).Table1)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			for _, row := range res.Rows {
				pfx := row.System.String() + "-"
				b.ReportMetric(float64(row.Total), pfx+"total-flips")
				b.ReportMetric(float64(row.Stable), pfx+"stable")
				b.ReportMetric(float64(row.Exploitable), pfx+"exploitable")
				b.ReportMetric(row.Time.Hours(), pfx+"profile-hours")
			}
		}
	}
}

// BenchmarkTable2PageSteering reproduces Table 2: released pages
// reused by EPTs across the (S, B) grid on S1, S2 and S3.
func BenchmarkTable2PageSteering(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).Table2)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			// Headline: best and worst R_E per system.
			first, last := res.Rows[0], res.Rows[4]
			b.ReportMetric(100*first.RE(), "S1-RE-smallspray-%")
			b.ReportMetric(100*last.RN(), "S1-RN-fewblocks-%")
		}
	}
}

// BenchmarkTable3AttackCost reproduces Table 3: repeated attack
// attempts to first verified escape on S1 and S2. The heavyweight
// benchmark — a full campaign per system.
func BenchmarkTable3AttackCost(b *testing.B) {
	o := benchOpts()
	if o.MaxAttempts == 0 && !o.Short {
		o.MaxAttempts = 800
	}
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).Table3)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			for _, row := range res.Rows {
				pfx := row.System.String() + "-"
				b.ReportMetric(row.AvgAttempt.Minutes(), pfx+"attempt-minutes")
				b.ReportMetric(float64(row.AttemptsToFirstSuccess), pfx+"attempts-to-escape")
			}
		}
	}
}

// BenchmarkFigure3aNoisePages reproduces Figure 3(a): the noise-page
// traces of the plain-KVM hosts S1 and S2 during vIOMMU exhaustion.
func BenchmarkFigure3aNoisePages(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).Figure3)
		if i == 0 {
			b.Log("\n" + res.Figure().Summary())
			b.ReportMetric(res.DropBelow(experiments.SystemS1, 1024), "S1-secs-below-1024")
			b.ReportMetric(res.DropBelow(experiments.SystemS2, 1024), "S2-secs-below-1024")
		}
	}
}

// BenchmarkFigure3bNoisePagesS3 reproduces Figure 3(b): the same trace
// on the OpenStack host S3, which starts with far more noise pages.
func BenchmarkFigure3bNoisePagesS3(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).Figure3)
		if i == 0 {
			for _, s := range res.Series {
				if s.System == experiments.SystemS3 {
					b.ReportMetric(float64(s.Points[0].NoisePages), "S3-initial-noise")
				}
			}
			b.ReportMetric(res.DropBelow(experiments.SystemS3, 1024), "S3-secs-below-1024")
		}
	}
}

// BenchmarkAnalysisSuccessProbability reproduces the Section 5.3.1
// bound and its Monte-Carlo cross-check.
func BenchmarkAnalysisSuccessProbability(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, analysis)
		if i == 0 {
			b.ReportMetric(1/res.Bound, "expected-attempts")
			b.ReportMetric(res.MonteCarlo*1e6, "montecarlo-ppm")
		}
	}
}

// BenchmarkAnalysisEndToEndTime reproduces the Section 5.3.3 estimate
// (192 days on S1, 137 on S2 with the paper's Table 1 inputs).
func BenchmarkAnalysisEndToEndTime(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, analysis)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			for _, row := range res.EndToEnd {
				b.ReportMetric(row.ExpectedTotal.Hours()/24, row.System.String()+"-days")
			}
		}
	}
}

// BenchmarkAnalysisVMSizeSweep reproduces the Section 5.3.1
// sensitivity analysis: attack prospects versus attacker VM size.
func BenchmarkAnalysisVMSizeSweep(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := experiments.VMSize(o)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.Rows[0].ExpectedDays, "smallest-vm-days")
			b.ReportMetric(res.Rows[len(res.Rows)-1].ExpectedDays, "13GiB-days")
		}
	}
}

// BenchmarkDRAMDigRecovery reproduces the Section 5.1 bank-function
// recovery on both processors.
func BenchmarkDRAMDigRecovery(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).DRAMDig)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(float64(res.Rows[0].Probes), "S1-probes")
		}
	}
}

// BenchmarkMitigationQuarantine evaluates the Section 6 quarantine
// countermeasure.
func BenchmarkMitigationQuarantine(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).Mitigation)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(float64(res.StockReleased), "stock-releases")
			b.ReportMetric(float64(res.QuarantinedReleased), "quarantined-releases")
		}
	}
}

// BenchmarkXenLiteSteering runs the Section 6 Xen comparison.
func BenchmarkXenLiteSteering(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).Xen)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(100*res.XenRE(), "xen-reuse-%")
			b.ReportMetric(100*res.KVMRE(), "kvm-noexhaust-reuse-%")
		}
	}
}

// BenchmarkBalloonSteering runs the Section 6 virtio-balloon
// feasibility analysis.
func BenchmarkBalloonSteering(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).Balloon)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			for _, row := range res.Rows {
				// ReportMetric units must not contain whitespace.
				unit := strings.NewReplacer(" ", "-", "(", "", ")", "").Replace(row.Path)
				b.ReportMetric(100*row.RN(), unit+"-RN-%")
			}
		}
	}
}

// BenchmarkMitigationTRR evaluates in-DRAM Target Row Refresh against
// the paper's single-sided pattern and a TRRespass many-sided one.
func BenchmarkMitigationTRR(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).TRR)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			for _, row := range res.Rows {
				if row.DIMM == "TRR (4 slots)" {
					b.ReportMetric(float64(row.Flips), "trr-"+row.Pattern+"-flips")
				}
			}
		}
	}
}

// BenchmarkMitigationECC evaluates SECDED ECC against profiling.
func BenchmarkMitigationECC(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).ECC)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(float64(res.FlipsNonECC), "flips-non-ecc")
			b.ReportMetric(float64(res.FlipsECC), "flips-ecc")
			b.ReportMetric(float64(res.Corrected), "ecc-corrected")
		}
	}
}

// BenchmarkMultihitTradeoff measures the iTLB-Multihit DoS versus the
// hugepage splits the countermeasure hands to HyperHammer.
func BenchmarkMultihitTradeoff(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).Multihit)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(float64(res.SplitsWithMitigation), "splits-with-nx")
			b.ReportMetric(boolMetric(res.DoSWithoutMitigation), "dos-without-nx")
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkAblationHammerSidedness quantifies why the attack is
// single-sided.
func BenchmarkAblationHammerSidedness(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).AblationSidedness)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(float64(res.SingleSidedUsable), "single-sided-usable")
			b.ReportMetric(float64(res.DoubleSidedUsable), "double-sided-usable")
		}
	}
}

// BenchmarkAblationNoExhaust compares steering with and without the
// exhaustion step.
func BenchmarkAblationNoExhaust(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).AblationNoExhaust)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(100*res.WithExhaust.RN(), "with-exhaust-RN-%")
			b.ReportMetric(100*res.WithoutExhaust.RN(), "without-exhaust-RN-%")
		}
	}
}

// BenchmarkAblationSpraySize sweeps the spray budget around the
// 512*(N+2) rule.
func BenchmarkAblationSpraySize(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).AblationSpraySize)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(100*res.Rows[len(res.Rows)-1].RN(), "full-spray-RN-%")
		}
	}
}

// BenchmarkAblationTHP compares profiling with and without host THP.
func BenchmarkAblationTHP(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).AblationTHP)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(float64(res.FlipsWithTHP), "flips-thp")
			b.ReportMetric(float64(res.FlipsWithoutTHP), "flips-no-thp")
		}
	}
}

// BenchmarkAblationPCPNoise compares the exact and padded spray
// budgets.
func BenchmarkAblationPCPNoise(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res := run(b, o, (*experiments.Plan).AblationPCPNoise)
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(float64(res.ExactSpray.Reused), "exact-reused")
			b.ReportMetric(float64(res.HeadroomSpray.Reused), "headroom-reused")
		}
	}
}
