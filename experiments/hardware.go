package experiments

import (
	"fmt"

	"hyperhammer/internal/attack"
	"hyperhammer/internal/dram"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/hammer"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/report"
)

// This file evaluates the two deployed hardware mitigations the
// paper's Section 6 discusses — in-DRAM Target Row Refresh and ECC —
// and the iTLB-Multihit trade-off that motivates the NX-hugepage
// countermeasure HyperHammer exploits.

// TRRRow is one (DIMM, pattern) cell of the TRR evaluation.
type TRRRow struct {
	DIMM         string
	Pattern      string
	Flips        int
	Reproducible int
}

// TRRResult compares hammer patterns on TRR-free and TRR-protected
// DIMMs.
type TRRResult struct {
	Rows []TRRRow
}

// Table renders the comparison.
func (r *TRRResult) Table() *report.Table {
	t := report.NewTable("Section 6: in-DRAM TRR vs hammer patterns",
		"DIMM", "Pattern", "Flips", "Reproducible")
	for _, row := range r.Rows {
		t.AddRow(row.DIMM, row.Pattern, row.Flips, row.Reproducible)
	}
	return t
}

// TRR runs the paper's single-sided pattern and a TRRespass-style
// many-sided pattern against a vulnerable DIMM without TRR and the
// same DIMM with a 4-slot TRR tracker. The expected shape (matching
// TRRespass, which the paper cites for its pattern search): TRR stops
// the narrow pattern cold, while the many-sided pattern overwhelms the
// tracker and still flips bits.
func TRR(o Options) (*TRRResult, error) {
	return planOne(o, (*Plan).TRR)
}

// TRR registers each DIMM variant's pattern search as an independent
// unit and returns the future of the assembled comparison.
func (p *Plan) TRR() *Future[*TRRResult] {
	f := &Future[*TRRResult]{}
	res := &TRRResult{}
	for _, variant := range []struct {
		unit, name string
		trr        *dram.TRRConfig
	}{
		{"trr.off", "no TRR", nil},
		{"trr.4slot", "TRR (4 slots)", &dram.TRRConfig{Slots: 4, Seed: p.o.Seed ^ 0x7272}},
	} {
		variant := variant
		addTyped(p, variant.unit,
			func(o Options) ([]TRRRow, error) { return trrRun(o, variant.name, variant.trr) },
			func(rows []TRRRow) { res.Rows = append(res.Rows, rows...) })
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

// trrRun searches both hammer patterns against one DIMM variant.
func trrRun(o Options, variant string, trr *dram.TRRConfig) ([]TRRRow, error) {
	patterns := []hammer.Pattern{
		{Name: "single-sided-2", RowOffsets: []int{6, 7}, Rounds: 250_000},
		{Name: "many-sided-8", RowOffsets: []int{0, 1, 2, 3, 4, 5, 6, 7}, Rounds: 250_000},
	}
	fault := dram.FaultModelConfig{
		Seed: o.Seed ^ 0x55, CellsPerRow: 0.6,
		ThresholdMin: 50_000, ThresholdMax: 150_000,
		StableFraction: 0.9, FlakyP: 0.5,
		NeighborWeight1: 1.0, NeighborWeight2: 0.25,
		TRR: trr,
	}
	sc := shortScale()
	h, err := kvm.NewHost(kvm.Config{
		Geometry:       sc.geometry(SystemS1),
		Fault:          fault,
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 500,
		Seed:           o.Seed,
		Scope:          o.ledgerless(),
	})
	if err != nil {
		return nil, err
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: 512 * memdef.MiB, VFIOGroups: 1})
	if err != nil {
		return nil, err
	}
	gos := guest.Boot(vm)
	results, err := hammer.Search(gos, hammer.Config{
		BankMasks: sc.geometry(SystemS1).BankMasks,
		Hugepages: 96,
		Repeats:   2,
	}, patterns)
	if err != nil {
		return nil, fmt.Errorf("trr search (%s): %w", variant, err)
	}
	var rows []TRRRow
	for _, r := range results {
		rows = append(rows, TRRRow{
			DIMM:         variant,
			Pattern:      r.Pattern.Name,
			Flips:        r.Flips,
			Reproducible: r.Reproducible,
		})
	}
	return rows, nil
}

// ECCResult compares profiling yield on non-ECC and ECC hosts.
type ECCResult struct {
	// FlipsNonECC is the profiling yield on the paper's non-ECC
	// configuration.
	FlipsNonECC int
	// FlipsECC is the yield on an ECC host (single-bit errors are
	// scrubbed away before software sees them).
	FlipsECC int
	// Corrected is the ECC host's corrected-error count — the
	// operator-visible trace the attack leaves behind.
	Corrected int
	// Detected is the count of uncorrectable double-bit words (host
	// machine checks).
	Detected int
	// HostCrashed reports whether the ECC host machine-checked
	// during profiling.
	HostCrashed bool
}

// Table renders the comparison.
func (r *ECCResult) Table() *report.Table {
	t := report.NewTable("Section 6: ECC memory vs Rowhammer profiling",
		"Metric", "Value")
	t.AddRow("flips observed, non-ECC DIMMs", r.FlipsNonECC)
	t.AddRow("flips observed, ECC DIMMs", r.FlipsECC)
	t.AddRow("ECC corrected errors (EDAC counter)", r.Corrected)
	t.AddRow("ECC uncorrectable words", r.Detected)
	t.AddRow("ECC host machine-checked", r.HostCrashed)
	return t
}

// ECC runs the same profiling budget on a non-ECC host and an ECC
// host. The paper's Section 6 notes its machines use non-ECC DIMMs
// "which differs from typical commodity servers": on the ECC host the
// attacker observes nothing (while the operator's corrected-error
// counters climb), unless a double-bit word machine-checks the host —
// either way HyperHammer's profiling starves.
func ECC(o Options) (*ECCResult, error) {
	return planOne(o, (*Plan).ECC)
}

// eccOutcome is what one host (ECC or not) reports.
type eccOutcome struct {
	flips, corrected, detected int
	crashed                    bool
}

// ECC registers the non-ECC and ECC hosts as independent units and
// returns the future of the comparison.
func (p *Plan) ECC() *Future[*ECCResult] {
	f := &Future[*ECCResult]{}
	res := &ECCResult{}
	for _, ecc := range []bool{false, true} {
		ecc := ecc
		name := "ecc.off"
		if ecc {
			name = "ecc.on"
		}
		addTyped(p, name,
			func(o Options) (eccOutcome, error) { return eccRun(o, ecc) },
			func(out eccOutcome) {
				if ecc {
					res.FlipsECC = out.flips
					res.Corrected, res.Detected = out.corrected, out.detected
					res.HostCrashed = out.crashed
				} else {
					res.FlipsNonECC = out.flips
				}
			})
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

// eccRun runs the profiling budget on one host.
func eccRun(o Options, ecc bool) (eccOutcome, error) {
	sc := shortScale()
	fault := sc.fault(SystemS1, o.Seed)
	fault.CellsPerRow = 0.1 // dense enough to see the contrast quickly
	h, err := kvm.NewHost(kvm.Config{
		Geometry:       sc.geometry(SystemS1),
		Fault:          fault,
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 500,
		ECC:            ecc,
		Seed:           o.Seed,
		Scope:          o.ledgerless(),
	})
	if err != nil {
		return eccOutcome{}, err
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: 1 * memdef.GiB, VFIOGroups: 1})
	if err != nil {
		return eccOutcome{}, err
	}
	gos := guest.Boot(vm)
	cfg := attackConfig(sc, SystemS1)
	prof, err := attack.Profile(gos, cfg)
	if err != nil && !ecc {
		return eccOutcome{}, err
	}
	out := eccOutcome{}
	if prof != nil {
		out.flips = prof.Total
	}
	if ecc {
		out.corrected, out.detected = h.ECCStats()
		out.crashed = h.Crashed()
	}
	return out, nil
}

// MultihitResult captures the trade-off between the iTLB Multihit DoS
// and HyperHammer: the NX-hugepage countermeasure blocks the former
// and enables the latter.
type MultihitResult struct {
	// DoSWithMitigation / DoSWithoutMitigation report whether the
	// malicious guest crashed the host.
	DoSWithMitigation, DoSWithoutMitigation bool
	// SplitsWithMitigation / SplitsWithoutMitigation count the
	// hugepage splits (HyperHammer's EPT-page source) the same exec
	// workload produced.
	SplitsWithMitigation, SplitsWithoutMitigation int
}

// Table renders the trade-off.
func (r *MultihitResult) Table() *report.Table {
	t := report.NewTable("Section 4.2.3: the iTLB Multihit trade-off (affected CPU)",
		"NX-hugepage countermeasure", "guest DoS crashes host", "hugepage splits (EPTE source)")
	t.AddRow("on (KVM default)", r.DoSWithMitigation, r.SplitsWithMitigation)
	t.AddRow("off", r.DoSWithoutMitigation, r.SplitsWithoutMitigation)
	return t
}

// Multihit demonstrates why KVM ships the countermeasure HyperHammer
// exploits: on an affected CPU without it, a malicious guest
// machine-checks the host at will (denial of service); with it, the
// host survives — but every guest code fetch now mints the EPT pages
// Page Steering feeds on.
func Multihit(o Options) (*MultihitResult, error) {
	return planOne(o, (*Plan).Multihit)
}

// multihitOutcome is one host's DoS-vs-splits measurement.
type multihitOutcome struct {
	crashed bool
	splits  int
}

// Multihit registers the mitigated and unmitigated hosts as
// independent units and returns the future of the trade-off.
func (p *Plan) Multihit() *Future[*MultihitResult] {
	f := &Future[*MultihitResult]{}
	res := &MultihitResult{}
	for _, mitigated := range []bool{true, false} {
		mitigated := mitigated
		name := "multihit.unmitigated"
		if mitigated {
			name = "multihit.mitigated"
		}
		addTyped(p, name,
			func(o Options) (multihitOutcome, error) { return multihitRun(o, mitigated) },
			func(out multihitOutcome) {
				if mitigated {
					res.DoSWithMitigation = out.crashed
					res.SplitsWithMitigation = out.splits
				} else {
					res.DoSWithoutMitigation = out.crashed
					res.SplitsWithoutMitigation = out.splits
				}
			})
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

// multihitRun measures one host: exec in every hugepage, then attempt
// the Multihit DoS.
func multihitRun(o Options, mitigated bool) (multihitOutcome, error) {
	sc := shortScale()
	h, err := kvm.NewHost(kvm.Config{
		Geometry:           sc.geometry(SystemS1),
		Fault:              sc.fault(SystemS1, o.Seed),
		THP:                true,
		NXHugepages:        mitigated,
		MultihitBugPresent: true,
		BootNoisePages:     500,
		Seed:               o.Seed,
		Scope:              o.ledgerless(),
	})
	if err != nil {
		return multihitOutcome{}, err
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: 256 * memdef.MiB, VFIOGroups: 1})
	if err != nil {
		return multihitOutcome{}, err
	}
	gos := guest.Boot(vm)
	base, err := gos.AllocHuge(64)
	if err != nil {
		return multihitOutcome{}, err
	}
	// The same guest workload on both hosts: execute code in every
	// hugepage, then attempt the Multihit DoS.
	for i := 0; i < 64; i++ {
		if _, err := gos.Exec(base + memdef.GVA(i)*memdef.HugePageSize); err != nil {
			return multihitOutcome{}, err
		}
	}
	crashed, err := gos.TriggerMultihitDoS(base)
	if err != nil {
		return multihitOutcome{}, err
	}
	return multihitOutcome{crashed: crashed, splits: vm.Splits()}, nil
}
