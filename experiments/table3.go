package experiments

import (
	"fmt"
	"time"

	"hyperhammer/internal/attack"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/report"
)

// Table3Row is one row of Table 3: the cost of HyperHammer attempts on
// one system.
type Table3Row struct {
	System System
	// AvgAttempt is the mean simulated duration of one attack
	// attempt.
	AvgAttempt time.Duration
	// TimeToFirstSuccess is the simulated time until the first
	// successful attempt (0 if none succeeded within the budget).
	TimeToFirstSuccess time.Duration
	// AttemptsToFirstSuccess is the attempt index of the first
	// success (0 if none).
	AttemptsToFirstSuccess int
	// Attempts is the total attempts run.
	Attempts int
	// ProfiledBits is the number of exploitable bits the one-time
	// profile provided.
	ProfiledBits int
}

// Table3Result holds the Table 3 reproduction.
type Table3Result struct {
	Rows []Table3Row
}

// Table renders the result in the paper's layout.
func (r *Table3Result) Table() *report.Table {
	t := report.NewTable("Table 3: the cost of HyperHammer tests",
		"Setting", "Avg. Time/Attempt", "Time 1st Success", "Attempts 1st Success")
	for _, row := range r.Rows {
		first := "none"
		firstT := "-"
		if row.AttemptsToFirstSuccess > 0 {
			first = fmt.Sprint(row.AttemptsToFirstSuccess)
			firstT = report.FormatDuration(row.TimeToFirstSuccess)
		}
		t.AddRow(row.System, row.AvgAttempt, firstT, first)
	}
	return t
}

// Table3 reproduces the Table 3 experiment on S1 and S2: profile once
// (reusing results across respawns via the GPA-to-HPA hypercall),
// then run steer-and-exploit attempts on respawned VMs until the first
// verified escape. Success is verified by reading a host-planted magic
// value through the stolen EPT page, as in Section 5.3.2.
func Table3(o Options) (*Table3Result, error) {
	return planOne(o, (*Plan).Table3)
}

// Table3 registers one full campaign per system as independent units
// and returns the future of the assembled table. These are the
// dominant units of a full run — scheduling them early lets the pool
// overlap them with everything else.
func (p *Plan) Table3() *Future[*Table3Result] {
	f := &Future[*Table3Result]{}
	res := &Table3Result{}
	for _, sys := range []System{SystemS1, SystemS2} {
		sys := sys
		addTyped(p, "table3."+sys.String(),
			func(o Options) (Table3Row, error) {
				row, err := table3Run(o, sys)
				if err != nil {
					return Table3Row{}, fmt.Errorf("table 3 %s: %w", sys, err)
				}
				return row, nil
			},
			func(row Table3Row) { res.Rows = append(res.Rows, row) })
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

func table3Run(o Options, sys System) (Table3Row, error) {
	sc := o.scale()
	h, err := o.newHost(sys)
	if err != nil {
		return Table3Row{}, err
	}
	const magic = 0x48595045_52484d52 // "HYPERHMR"
	secret := h.PlantSecret(magic)

	cfg := attackConfig(sc, sys)
	maxAttempts := o.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 600
		if o.Short {
			maxAttempts = 200
		}
	}
	// Per-system root span: the campaign's span tree nests under it,
	// so one cost profile separates S1 from S2 phase costs.
	span := o.Trace.StartSpan("table3."+sys.String(), "system", sys.String())
	cfg.Span = span
	campaign, err := attack.RunCampaign(h, attack.CampaignConfig{
		Attack:      cfg,
		VM:          kvm.VMConfig{MemSize: sc.vmSize, VFIOGroups: 1, BootSplits: sc.bootSplits},
		MaxAttempts: maxAttempts,
		VerifyHPA:   secret,
		VerifyValue: magic,
	})
	span.End()
	if err != nil {
		return Table3Row{}, err
	}
	return Table3Row{
		System:                 sys,
		AvgAttempt:             campaign.AvgAttemptTime(),
		TimeToFirstSuccess:     campaign.TimeToFirstSuccess,
		AttemptsToFirstSuccess: campaign.FirstSuccessAttempt,
		Attempts:               len(campaign.Attempts),
		ProfiledBits:           campaign.ProfiledBits,
	}, nil
}
