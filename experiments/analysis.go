package experiments

import (
	"fmt"
	"time"

	"hyperhammer/internal/attack"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/report"
)

// AnalysisResult reproduces the closed-form analyses of Sections 5.3.1
// and 5.3.3, plus a Monte-Carlo cross-check of the bound.
type AnalysisResult struct {
	// GuestMem/HostMem are the sizes the bound is evaluated at.
	GuestMem, HostMem uint64
	// Bound is the Section 5.3.1 success-probability upper bound.
	Bound float64
	// ExpectedAttempts is 1/Bound.
	ExpectedAttempts float64
	// MonteCarlo is the sampled probability that a single
	// exploitable-bit flip lands an EPTE on an EPT page.
	MonteCarlo float64
	// EndToEnd holds the Section 5.3.3 end-to-end duration estimates.
	EndToEnd []EndToEndRow
}

// EndToEndRow is one system's expected end-to-end attack time.
type EndToEndRow struct {
	System          System
	FullProfile     time.Duration
	ExploitableBits int
	TargetBits      int
	PerAttempt      time.Duration
	ExpectedTotal   time.Duration
}

// Table renders the analysis summary.
func (r *AnalysisResult) Table() *report.Table {
	t := report.NewTable("Section 5.3 analysis",
		"Quantity", "Value")
	t.AddRow("success bound (13 GiB VM / 16 GiB host)", r.Bound)
	t.AddRow("expected attempts", r.ExpectedAttempts)
	t.AddRow("Monte-Carlo flip-hits-EPT probability", r.MonteCarlo)
	for _, row := range r.EndToEnd {
		t.AddRow("end-to-end estimate "+row.System.String(), row.ExpectedTotal)
	}
	return t
}

// analysisMem returns the (guest, host) sizes the bound is evaluated
// at: the paper's 13 GiB VM on a 16 GiB host.
func analysisMem() (uint64, uint64) {
	return uint64(13 * memdef.GiB), uint64(16 * memdef.GiB)
}

// analysisMCConfig parameterizes the Monte-Carlo cross-check.
func analysisMCConfig(o Options) attack.MonteCarloConfig {
	_, hostMem := analysisMem()
	return attack.MonteCarloConfig{
		Seed:    o.Seed,
		Samples: 500_000,
		// 12 GiB of 2 MiB sprays -> ~6144 EPT pages over 4M frames.
		EPTPages:   6144,
		HostFrames: int(hostMem / memdef.PageSize),
	}
}

// mcShards is how many units the Monte-Carlo sampling fans out as.
// The estimate is shard-count invariant (per-sample derived draws), so
// this only tunes scheduling granularity.
const mcShards = 8

// Analysis computes the paper's analytic results. t1 supplies the
// measured Table 1 numbers the end-to-end estimate consumes; pass
// Resolved(nil) to use the paper's own published values (72 h / 96
// bits on S1, 48 h / 90 bits on S2). It registers the Monte-Carlo
// sampling as mcShards independent units (summed in shard order at
// delivery) and assembles the closed-form analysis once t1 is
// available.
func (p *Plan) Analysis(t1 *Future[*Table1Result]) *Future[*AnalysisResult] {
	f := &Future[*AnalysisResult]{}
	cfg := analysisMCConfig(p.o)
	hits := 0
	for s := 0; s < mcShards; s++ {
		s := s
		addTyped(p, fmt.Sprintf("analysis.mc.%d", s),
			func(Options) (int, error) { return attack.MonteCarloHits(cfg, s, mcShards), nil },
			func(h int) { hits += h })
	}
	p.finally(func() error {
		f.set(assembleAnalysis(t1.Get(), float64(hits)/float64(cfg.Samples)))
		return nil
	})
	return f
}

// assembleAnalysis builds the result from the sampled probability and
// the (optional) measured Table 1 rows.
func assembleAnalysis(profile *Table1Result, monteCarlo float64) *AnalysisResult {
	guestMem, hostMem := analysisMem()
	res := &AnalysisResult{
		GuestMem:         guestMem,
		HostMem:          hostMem,
		Bound:            attack.SuccessBound(guestMem, hostMem),
		ExpectedAttempts: attack.ExpectedAttempts(guestMem, hostMem),
		MonteCarlo:       monteCarlo,
	}
	rows := []EndToEndRow{
		{System: SystemS1, FullProfile: 72 * time.Hour, ExploitableBits: 96, TargetBits: 12},
		{System: SystemS2, FullProfile: 48 * time.Hour, ExploitableBits: 90, TargetBits: 12},
	}
	if profile != nil {
		rows = rows[:0]
		for _, pr := range profile.Rows {
			rows = append(rows, EndToEndRow{
				System:          pr.System,
				FullProfile:     pr.Time,
				ExploitableBits: pr.Exploitable,
				TargetBits:      12,
			})
		}
	}
	for _, row := range rows {
		if row.ExploitableBits == 0 {
			continue
		}
		row.PerAttempt = time.Duration(float64(row.FullProfile) *
			float64(row.TargetBits) / float64(row.ExploitableBits))
		// Section 5.3.3 assumes a flat 512 attempts ("at the limit"
		// of the bound) rather than the exact 512*host/guest ratio;
		// follow the paper's arithmetic so the 192/137-day numbers
		// reproduce.
		row.ExpectedTotal = attack.EndToEndEstimate(
			row.FullProfile, row.ExploitableBits, row.TargetBits, 512)
		res.EndToEnd = append(res.EndToEnd, row)
	}
	return res
}
