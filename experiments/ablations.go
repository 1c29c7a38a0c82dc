package experiments

import (
	"fmt"

	"hyperhammer/internal/attack"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/report"
)

// Ablations evaluate the design choices DESIGN.md calls out. They all
// run at the short scale: each isolates a mechanism rather than
// reproducing a paper number.

// SidednessResult quantifies why virtio-mem's 2 MiB granularity forces
// single-sided hammering (Section 4.1).
type SidednessResult struct {
	// ProfiledBits is the number of stable exploitable bits found
	// with the single-sided border pattern.
	ProfiledBits int
	// SingleSidedUsable is how many of them survive the release
	// constraint (aggressors outside the released hugepage).
	SingleSidedUsable int
	// DoubleSidedUsable is how many would survive if the attacker
	// needed aggressors on both sides of the victim row.
	DoubleSidedUsable int
}

// Table renders the ablation.
func (r *SidednessResult) Table() *report.Table {
	t := report.NewTable("Ablation: hammer sidedness under the 2 MiB release constraint",
		"Variant", "Usable bits")
	t.AddRow("single-sided (paper)", r.SingleSidedUsable)
	t.AddRow("double-sided", r.DoubleSidedUsable)
	return t
}

// AblationSidedness profiles a guest and checks, for every found bit,
// whether the aggressor rows a single- or double-sided pattern needs
// would survive releasing the victim's hugepage. Double-sided needs
// rows on both sides of the victim; for victims at a hugepage border
// (the only ones the attacker can create) one of those rows is always
// inside the released hugepage. It registers the single profiling unit
// and returns the future of the sidedness analysis.
func (p *Plan) AblationSidedness() *Future[*SidednessResult] {
	f := &Future[*SidednessResult]{}
	var res *SidednessResult
	addTyped(p, "ablation.sidedness", sidednessRun,
		func(r *SidednessResult) { res = r })
	p.finally(func() error { f.set(res); return nil })
	return f
}

func sidednessRun(o Options) (*SidednessResult, error) {
	sc := shortScale()
	hcfg, cfg := o.machine(sc, SystemS1)
	h, err := kvm.NewHost(hcfg)
	if err != nil {
		return nil, err
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: sc.vmSize, VFIOGroups: 1})
	if err != nil {
		return nil, err
	}
	gos := guest.Boot(vm)
	prof, err := attack.Profile(gos, cfg)
	if err != nil {
		return nil, err
	}
	res := &SidednessResult{}
	rowsPerHuge := uint64(memdef.HugePageSize / (256 * memdef.KiB))
	for _, b := range prof.ExploitableBits(0) {
		res.ProfiledBits++
		// Single-sided: both aggressors are in a neighbouring
		// hugepage by construction; usable unless they collide with
		// the victim's hugepage (they cannot, Profile filters that).
		res.SingleSidedUsable++
		// Double-sided needs aggressors in the rows on both sides of
		// the victim. A victim row strictly inside its hugepage would
		// qualify — but border hammering only reaches rows 0 and 7.
		rowInHuge := (uint64(b.Flip.GVA) >> 18) & (rowsPerHuge - 1)
		if rowInHuge != 0 && rowInHuge != rowsPerHuge-1 {
			res.DoubleSidedUsable++
		}
	}
	return res, nil
}

// ExhaustAblationResult compares steering with and without the
// free-list exhaustion step (Section 4.2.1).
type ExhaustAblationResult struct {
	WithExhaust, WithoutExhaust Table2Row
}

// Table renders the ablation.
func (r *ExhaustAblationResult) Table() *report.Table {
	t := report.NewTable("Ablation: vIOMMU exhaustion on vs off",
		"Variant", "N", "E", "R", "R_N", "R_E")
	for _, v := range []struct {
		name string
		row  Table2Row
	}{{"with exhaustion", r.WithExhaust}, {"without", r.WithoutExhaust}} {
		t.AddRow(v.name, v.row.Released, v.row.EPTPages, v.row.Reused,
			report.Percent(v.row.RN()), report.Percent(v.row.RE()))
	}
	return t
}

// AblationNoExhaust measures how much of the released memory EPT
// allocations reach when the attacker does or does not drain the
// noise pages first. It registers the exhaust-on and exhaust-off
// steering runs as independent units and returns the future of the
// comparison.
func (p *Plan) AblationNoExhaust() *Future[*ExhaustAblationResult] {
	f := &Future[*ExhaustAblationResult]{}
	res := &ExhaustAblationResult{}
	addTyped(p, "ablation.exhaust.on",
		func(o Options) (Table2Row, error) { return steerOnce(o, true, 8, 0) },
		func(row Table2Row) { res.WithExhaust = row })
	addTyped(p, "ablation.exhaust.off",
		func(o Options) (Table2Row, error) { return steerOnce(o, false, 8, 0) },
		func(row Table2Row) { res.WithoutExhaust = row })
	p.finally(func() error { f.set(res); return nil })
	return f
}

// SprayAblationResult sweeps the spray budget (Section 4.2.3's
// 512*(N+2) rule).
type SprayAblationResult struct {
	Rows []Table2Row
}

// Table renders the sweep.
func (r *SprayAblationResult) Table() *report.Table {
	t := report.NewTable("Ablation: spray size vs released-page coverage",
		"Spray pages", "N", "R", "R_N")
	for _, row := range r.Rows {
		t.AddRow(row.EPTPages, row.Released, row.Reused, report.Percent(row.RN()))
	}
	return t
}

// AblationSpraySize runs steering with spray budgets from well below
// to above 512*(B+2), showing the knee the paper's sizing rule sits
// on. It registers one steering unit per spray budget and returns the
// future of the sweep, assembled in budget order.
func (p *Plan) AblationSpraySize() *Future[*SprayAblationResult] {
	const blocks = 2
	f := &Future[*SprayAblationResult]{}
	res := &SprayAblationResult{}
	for _, sprayPages := range []int{256, 512, 1024, 512 * (blocks + 1), 512 * (blocks + 2)} {
		sprayPages := sprayPages
		addTyped(p, fmt.Sprintf("ablation.spray.%d", sprayPages),
			func(o Options) (Table2Row, error) { return steerOnce(o, true, blocks, sprayPages) },
			func(row Table2Row) { res.Rows = append(res.Rows, row) })
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

// THPAblationResult compares profiling effectiveness with and without
// host transparent hugepages (Section 4.1's enabling assumption).
type THPAblationResult struct {
	// FlipsWithTHP / FlipsWithoutTHP are profiling yields under
	// identical budgets.
	FlipsWithTHP, FlipsWithoutTHP int
	// Low21PreservedWithTHP / WithoutTHP are the fractions of sampled
	// pages whose GVA and HPA agree on the low 21 bits.
	Low21PreservedWithTHP, Low21PreservedWithoutTHP float64
}

// Table renders the ablation.
func (r *THPAblationResult) Table() *report.Table {
	t := report.NewTable("Ablation: host THP on vs off",
		"Variant", "Profiling flips", "low-21-bit preservation")
	t.AddRow("THP on", r.FlipsWithTHP, report.Percent(r.Low21PreservedWithTHP))
	t.AddRow("THP off", r.FlipsWithoutTHP, report.Percent(r.Low21PreservedWithoutTHP))
	return t
}

// thpOutcome is one host's profiling yield and address preservation.
type thpOutcome struct {
	flips     int
	preserved float64
}

// AblationTHP runs the same profiling budget on a THP host and a
// 4 KiB-backed host. Without THP the bank-class placement no longer
// corresponds to physical banks and the profiler's aggressor pairs
// land in unrelated rows. It registers the THP-on and THP-off hosts as
// independent units and returns the future of the comparison.
func (p *Plan) AblationTHP() *Future[*THPAblationResult] {
	f := &Future[*THPAblationResult]{}
	res := &THPAblationResult{}
	for _, thp := range []bool{true, false} {
		thp := thp
		name := "ablation.thp.off"
		if thp {
			name = "ablation.thp.on"
		}
		addTyped(p, name,
			func(o Options) (thpOutcome, error) { return thpRun(o, thp) },
			func(out thpOutcome) {
				if thp {
					res.FlipsWithTHP = out.flips
					res.Low21PreservedWithTHP = out.preserved
				} else {
					res.FlipsWithoutTHP = out.flips
					res.Low21PreservedWithoutTHP = out.preserved
				}
			})
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

// thpRun profiles one host and samples low-21-bit preservation.
func thpRun(o Options, thp bool) (thpOutcome, error) {
	// A small slice of the machine keeps the THP-off run (which
	// backs 512 pages per chunk individually) affordable.
	vmSize := uint64(512 * memdef.MiB)
	cfg, acfg := o.machine(shortScale(), SystemS1)
	cfg.THP, cfg.BootNoisePages = thp, 500
	h, err := kvm.NewHost(cfg)
	if err != nil {
		return thpOutcome{}, err
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: vmSize, VFIOGroups: 1})
	if err != nil {
		return thpOutcome{}, err
	}
	gos := guest.Boot(vm)
	prof, err := attack.Profile(gos, acfg)
	if err != nil {
		return thpOutcome{}, err
	}
	// Sample low-21-bit preservation across the buffer.
	preserved, sampled := 0, 0
	for i := 0; i < prof.Buffer.Hugepages; i += 3 {
		gva := prof.Buffer.HugepageBase(i) + 0x12345
		hpa, err := gos.Hypercall(gva &^ 7)
		if err != nil {
			continue
		}
		sampled++
		if uint64(hpa)&(memdef.HugePageSize-1) == uint64(gva&^7)&(memdef.HugePageSize-1) {
			preserved++
		}
	}
	frac := 0.0
	if sampled > 0 {
		frac = float64(preserved) / float64(sampled)
	}
	return thpOutcome{flips: prof.Total, preserved: frac}, nil
}

// PCPAblationResult shows the "+2" headroom of the 512*(N+2) sizing
// rule absorbing the PCP and leftover-small-block noise.
type PCPAblationResult struct {
	// ExactSpray is reuse when spraying exactly 512*B pages.
	ExactSpray Table2Row
	// HeadroomSpray is reuse when spraying 512*(B+2).
	HeadroomSpray Table2Row
}

// Table renders the ablation.
func (r *PCPAblationResult) Table() *report.Table {
	t := report.NewTable("Ablation: spray headroom for PCP/header-cache noise",
		"Budget", "N", "R", "R_N")
	t.AddRow("512*B", r.ExactSpray.Released, r.ExactSpray.Reused, report.Percent(r.ExactSpray.RN()))
	t.AddRow("512*(B+2)", r.HeadroomSpray.Released, r.HeadroomSpray.Reused, report.Percent(r.HeadroomSpray.RN()))
	return t
}

// AblationPCPNoise compares the exact spray budget against the paper's
// padded budget. It registers the exact and padded spray budgets as
// independent units and returns the future of the comparison.
func (p *Plan) AblationPCPNoise() *Future[*PCPAblationResult] {
	const blocks = 2
	f := &Future[*PCPAblationResult]{}
	res := &PCPAblationResult{}
	addTyped(p, "ablation.pcp.exact",
		func(o Options) (Table2Row, error) { return steerOnce(o, true, blocks, 512*blocks) },
		func(row Table2Row) { res.ExactSpray = row })
	addTyped(p, "ablation.pcp.headroom",
		func(o Options) (Table2Row, error) { return steerOnce(o, true, blocks, 512*(blocks+2)) },
		func(row Table2Row) { res.HeadroomSpray = row })
	p.finally(func() error { f.set(res); return nil })
	return f
}
