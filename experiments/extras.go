package experiments

import (
	"fmt"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/dramdig"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/mitigation"
	"hyperhammer/internal/report"
	"hyperhammer/internal/virtio"
	"hyperhammer/internal/xenlite"
)

// DRAMDigRow is one system's bank-function recovery outcome.
type DRAMDigRow struct {
	System System
	// Banks is the recovered bank count.
	Banks int
	// MaskCount is the number of recovered XOR masks.
	MaskCount int
	// Probes is the timing-probe budget spent.
	Probes int
	// Matches reports whether the recovered function induces the
	// same collision classes as the ground-truth geometry.
	Matches bool
	// THPCompatible reports whether all recovered bits are <= 21.
	THPCompatible bool
}

// DRAMDigResult reproduces the Section 5.1 DRAMDig verification.
type DRAMDigResult struct {
	Rows []DRAMDigRow
}

// Table renders the result.
func (r *DRAMDigResult) Table() *report.Table {
	t := report.NewTable("Section 5.1: DRAMDig bank-function recovery",
		"System", "Banks", "Masks", "Probes", "Matches", "THP-compatible")
	for _, row := range r.Rows {
		t.AddRow(row.System, row.Banks, row.MaskCount, row.Probes, row.Matches, row.THPCompatible)
	}
	return t
}

// DRAMDig recovers the bank function of both processors from timing
// and verifies the paper's two claims: the recovery matches the real
// function, and every function bit is preserved by THP translation.
func DRAMDig(o Options) (*DRAMDigResult, error) {
	return planOne(o, (*Plan).DRAMDig)
}

// DRAMDig registers one per-geometry recovery unit per system and
// returns the future of the assembled table.
func (p *Plan) DRAMDig() *Future[*DRAMDigResult] {
	f := &Future[*DRAMDigResult]{}
	res := &DRAMDigResult{}
	for _, sys := range []System{SystemS1, SystemS2} {
		sys := sys
		addTyped(p, "dramdig."+sys.String(),
			func(o Options) (DRAMDigRow, error) { return dramdigRun(o, sys) },
			func(row DRAMDigRow) { res.Rows = append(res.Rows, row) })
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

// dramdigRun recovers and verifies one system's bank function.
func dramdigRun(o Options, sys System) (DRAMDigRow, error) {
	geo := dram.CoreI310100()
	if sys == SystemS2 {
		geo = dram.XeonE32124()
	}
	timing := dram.NewTiming(geo, o.Seed^0xD1)
	rec, err := dramdig.Recover(timing, dramdig.Config{Seed: o.Seed ^ 0xD2, MemSize: geo.Size, Trace: o.Trace})
	if err != nil {
		return DRAMDigRow{}, fmt.Errorf("dramdig %s: %w", sys, err)
	}
	matches := true
	base := memdef.HPA(5 * memdef.GiB)
	for off := uint64(0); off < 512*memdef.KiB && matches; off += 64 * 3 {
		a, b := base, base+memdef.HPA(off)
		matches = rec.SameBank(a, b) == (geo.Bank(a) == geo.Bank(b))
	}
	return DRAMDigRow{
		System:        sys,
		Banks:         rec.Banks,
		MaskCount:     len(rec.Masks),
		Probes:        rec.ProbeCount,
		Matches:       matches,
		THPCompatible: rec.AllBitsBelow(22),
	}, nil
}

// MitigationResult evaluates the Section 6 quarantine countermeasure.
type MitigationResult struct {
	// StockReleased is how many blocks a malicious guest released on
	// a stock host.
	StockReleased int
	// QuarantinedReleased is the same on a quarantined host.
	QuarantinedReleased int
	// NACKs is how many malicious requests the quarantine refused.
	NACKs int
	// LegitResizeOK reports whether an honest hypervisor-initiated
	// resize still works under quarantine.
	LegitResizeOK bool
}

// Table renders the result.
func (r *MitigationResult) Table() *report.Table {
	t := report.NewTable("Section 6: quarantine countermeasure",
		"Metric", "Value")
	t.AddRow("voluntary releases on stock QEMU", r.StockReleased)
	t.AddRow("voluntary releases under quarantine", r.QuarantinedReleased)
	t.AddRow("quarantine NACKs", r.NACKs)
	t.AddRow("legitimate resize still works", r.LegitResizeOK)
	return t
}

// Mitigation runs Page Steering's release step against a stock host
// and a quarantined host and compares.
func Mitigation(o Options) (*MitigationResult, error) {
	return planOne(o, (*Plan).Mitigation)
}

// mitigationOutcome is what one host (stock or quarantined) reports.
type mitigationOutcome struct {
	released, nacks int
	legit           bool
}

// Mitigation registers the stock host and the quarantined host as
// independent units and returns the future of the comparison.
func (p *Plan) Mitigation() *Future[*MitigationResult] {
	f := &Future[*MitigationResult]{}
	res := &MitigationResult{}
	for _, guarded := range []bool{false, true} {
		guarded := guarded
		name := "mitigation.stock"
		if guarded {
			name = "mitigation.quarantined"
		}
		addTyped(p, name,
			func(o Options) (mitigationOutcome, error) { return mitigationRun(o, guarded) },
			func(out mitigationOutcome) {
				if guarded {
					res.QuarantinedReleased = out.released
					res.NACKs = out.nacks
					res.LegitResizeOK = out.legit
				} else {
					res.StockReleased = out.released
				}
			})
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

// mitigationRun boots one host (quarantined when guarded), attempts
// the malicious releases, then an honest resize.
func mitigationRun(o Options, guarded bool) (mitigationOutcome, error) {
	sc := o.scale()
	var guard virtio.Guard
	if guarded {
		// Built from the unit's own trace so quarantine events land in
		// the owning unit's span stream.
		guard, _ = mitigation.Traced(o.Trace)
	}
	cfg := kvm.Config{
		Geometry:       sc.geometry(SystemS1),
		Fault:          sc.fault(SystemS1, o.Seed),
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 1000,
		Seed:           o.Seed,
		Quarantine:     guard,
		Scope:          o.ledgerless(),
	}
	h, err := kvm.NewHost(cfg)
	if err != nil {
		return mitigationOutcome{}, err
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: sc.vmSize / 2, VFIOGroups: 1})
	if err != nil {
		return mitigationOutcome{}, err
	}
	gos := guest.Boot(vm)
	gos.InstallAttackDriver()
	base, err := gos.AllocHuge(16)
	if err != nil {
		return mitigationOutcome{}, err
	}
	out := mitigationOutcome{}
	for i := 0; i < 8; i++ {
		gva := base + memdef.GVA(i)*memdef.HugePageSize
		if gos.ReleaseHugepage(gva) == nil {
			out.released++
		}
	}
	out.nacks = vm.MemDevice().NACKs()
	// An honest shrink: hypervisor lowers the target, stock
	// driver follows.
	dev := vm.MemDevice()
	dev.SetRequestedSize(dev.PluggedSize() - 2*memdef.HugePageSize)
	honest := virtio.NewGuestDriver(dev)
	honest.OnUnplug = func(gpa memdef.GPA, _ uint64) {}
	_, serr := honest.SyncToTarget()
	out.legit = serr == nil && dev.PluggedSize() == dev.RequestedSize()
	return out, nil
}

// XenResult compares Page Steering difficulty on Xen versus KVM
// (Section 6).
type XenResult struct {
	// XenReleased/XenReused are the Xen-lite steering counts with no
	// exhaustion step at all.
	XenReleased, XenReused int
	// KVMNoExhaustReleased/Reused are KVM counts when the attacker
	// skips the exhaustion step.
	KVMNoExhaustReleased, KVMNoExhaustReused int
}

// XenRE returns the Xen reuse fraction R/N.
func (r *XenResult) XenRE() float64 {
	if r.XenReleased == 0 {
		return 0
	}
	return float64(r.XenReused) / float64(r.XenReleased)
}

// KVMRE returns KVM's no-exhaustion reuse fraction.
func (r *XenResult) KVMRE() float64 {
	if r.KVMNoExhaustReleased == 0 {
		return 0
	}
	return float64(r.KVMNoExhaustReused) / float64(r.KVMNoExhaustReleased)
}

// Table renders the comparison.
func (r *XenResult) Table() *report.Table {
	t := report.NewTable("Section 6: Page Steering without exhaustion, Xen vs KVM",
		"Hypervisor", "Released pages", "Reused by tables", "R/N")
	t.AddRow("Xen (single heap)", r.XenReleased, r.XenReused, report.Percent(r.XenRE()))
	t.AddRow("KVM (migratetypes)", r.KVMNoExhaustReleased, r.KVMNoExhaustReused, report.Percent(r.KVMRE()))
	return t
}

// Xen runs the comparison: on Xen-lite, released domain pages are
// immediately eligible for p2m allocations; on KVM, skipping the
// exhaustion step leaves the noise pages in front of the released
// blocks and reuse collapses.
func Xen(o Options) (*XenResult, error) {
	return planOne(o, (*Plan).Xen)
}

// Xen registers the Xen-lite heap side and the KVM no-exhaust side as
// independent units and returns the future of the comparison.
func (p *Plan) Xen() *Future[*XenResult] {
	f := &Future[*XenResult]{}
	res := &XenResult{}
	addTyped(p, "xen.heap",
		func(Options) ([2]int, error) { return xenHeapRun() },
		func(v [2]int) { res.XenReleased, res.XenReused = v[0], v[1] })
	addTyped(p, "xen.kvm",
		func(o Options) ([2]int, error) { return xenKVMRun(o) },
		func(v [2]int) { res.KVMNoExhaustReleased, res.KVMNoExhaustReused = v[0], v[1] })
	p.finally(func() error { f.set(res); return nil })
	return f
}

// xenHeapRun measures steering reuse on the Xen-lite single heap:
// 4 GiB heap, 3 GiB domain, release 8 chunks, allocate p2m pages.
func xenHeapRun() ([2]int, error) {
	heap := xenlite.NewHeap(0, 4*memdef.GiB/memdef.PageSize)
	dom, err := heap.CreateDomain(3 * memdef.GiB)
	if err != nil {
		return [2]int{}, err
	}
	var chunks []memdef.GPA
	for i := 0; i < 8; i++ {
		chunks = append(chunks, memdef.GPA(i)*37*memdef.HugePageSize)
	}
	released, reused, err := dom.SteeringReuse(chunks, 8*memdef.PagesPerHuge)
	if err != nil {
		return [2]int{}, err
	}
	return [2]int{released, reused}, nil
}

// xenKVMRun measures the same shape on KVM, but skips exhaustion.
func xenKVMRun(o Options) ([2]int, error) {
	sc := shortScale()
	h, err := o.newHostAt(sc, SystemS1)
	if err != nil {
		return [2]int{}, err
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: sc.vmSize, VFIOGroups: 1})
	if err != nil {
		return [2]int{}, err
	}
	gos := guest.Boot(vm)
	gos.InstallAttackDriver()
	n := gos.FreeHugepages()
	base, err := gos.AllocHuge(n)
	if err != nil {
		return [2]int{}, err
	}
	for i := 1; i <= 8; i++ {
		if err := gos.ReleaseHugepage(base + memdef.GVA(i*37)*memdef.HugePageSize); err != nil {
			return [2]int{}, err
		}
	}
	for i := 0; i < n; i++ {
		gva := base + memdef.GVA(i)*memdef.HugePageSize
		if _, err := gos.GPAOf(gva); err != nil {
			continue // released
		}
		if _, err := gos.Exec(gva); err != nil {
			return [2]int{}, err
		}
	}
	stats := vm.EPTReuse()
	return [2]int{stats.ReleasedPages, stats.ReusedPages}, nil
}

// newHostAt boots a host at an explicit scale (used by comparisons
// that always run small).
func (o Options) newHostAt(sc scale, sys System) (*kvm.Host, error) {
	return kvm.NewHost(kvm.Config{
		Geometry:       sc.geometry(sys),
		Fault:          sc.fault(sys, o.Seed),
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: sc.hostNoise(sys),
		Seed:           o.Seed ^ uint64(sys)<<32,
		Scope:          o.ledgerless(),
	})
}
