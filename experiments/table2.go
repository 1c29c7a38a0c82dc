package experiments

import (
	"errors"
	"fmt"

	"hyperhammer/internal/guest"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/report"
)

// Table2Row is one row of Table 2: pages released by the VM versus
// pages reused by EPTs.
type Table2Row struct {
	System System
	// SprayBytes is the memory used for EPT creation (the paper's S).
	SprayBytes uint64
	// Blocks is the number of released page blocks (the paper's B).
	Blocks int
	// Released is B*512 (the paper's N).
	Released int
	// EPTPages is the number of leaf EPT pages in the system (E).
	EPTPages int
	// Reused is the number of released pages holding EPT pages (R).
	Reused int
}

// RN returns R/N.
func (r Table2Row) RN() float64 {
	if r.Released == 0 {
		return 0
	}
	return float64(r.Reused) / float64(r.Released)
}

// RE returns R/E.
func (r Table2Row) RE() float64 {
	if r.EPTPages == 0 {
		return 0
	}
	return float64(r.Reused) / float64(r.EPTPages)
}

// Table2Result holds the full Table 2 reproduction.
type Table2Result struct {
	Rows []Table2Row
}

// Table renders the result in the paper's layout.
func (r *Table2Result) Table() *report.Table {
	t := report.NewTable(
		"Table 2: pages released from the VM and released pages reused by EPTs",
		"Setting", "S", "B", "N", "E", "R", "R_N", "R_E")
	for _, row := range r.Rows {
		t.AddRow(row.System,
			fmt.Sprintf("%d GB", row.SprayBytes/memdef.GiB),
			row.Blocks, row.Released, row.EPTPages, row.Reused,
			report.Percent(row.RN()), report.Percent(row.RE()))
	}
	return t
}

// table2Settings returns the paper's (S, B) grid.
func table2Settings(sc scale) []struct {
	spray  uint64
	blocks int
} {
	if sc.vmSize < 13*memdef.GiB {
		// Short scale: proportional settings.
		g := sc.vmSize / 4
		return []struct {
			spray  uint64
			blocks int
		}{
			{1 * g, 24}, {2 * g, 24}, {2 * g, 16}, {2 * g, 8}, {2 * g, 4},
		}
	}
	return []struct {
		spray  uint64
		blocks int
	}{
		{5 * memdef.GiB, 100},
		{10 * memdef.GiB, 100},
		{10 * memdef.GiB, 70},
		{10 * memdef.GiB, 30},
		{10 * memdef.GiB, 20},
	}
}

// Table2 reproduces the Table 2 experiment on all three systems: for
// each (S, B) setting, exhaust the host's noise pages through vIOMMU,
// release B page blocks through the modified virtio-mem driver,
// trigger EPT creation over S bytes of the VM's memory, and use the
// hypervisor's released-PFN log and EPT-page dump to count reuse. Each
// (system, S, B) row is an independent unit that boots its own fresh
// host; the future resolves to the assembled table.
func (p *Plan) Table2() *Future[*Table2Result] {
	f := &Future[*Table2Result]{}
	res := &Table2Result{}
	for _, sys := range []System{SystemS1, SystemS2, SystemS3} {
		for _, setting := range table2Settings(p.o.scale()) {
			sys, spray, blocks := sys, setting.spray, setting.blocks
			addTyped(p, fmt.Sprintf("table2.%s.S%d.B%d", sys, spray, blocks),
				func(o Options) (Table2Row, error) {
					row, err := Table2Run(o, sys, spray, blocks)
					if err != nil {
						return Table2Row{}, fmt.Errorf("table 2 %s S=%d B=%d: %w", sys, spray, blocks, err)
					}
					return row, nil
				},
				func(row Table2Row) { res.Rows = append(res.Rows, row) })
		}
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

// ErrBlocksOutOfRange is Table2Run's refusal of a block count B
// outside 1..n-1, where n is the attacker VM's free hugepages after
// boot: hugepage 0 stays mapped as the DMA target.
var ErrBlocksOutOfRange = errors.New("experiments: page blocks out of range")

// Table2Run is one Table 2 unit: Page Steering on machine sys at o's
// scale, on the system's own ledgered host and in its attacker VM,
// releasing B = blocks page blocks and spraying EPTs over S =
// sprayBytes. The row reports the requested S. hh steer runs it alone.
func Table2Run(o Options, sys System, sprayBytes uint64, blocks int) (Table2Row, error) {
	h, vmCfg, acfg, err := o.newHost(sys)
	if err != nil {
		return Table2Row{}, err
	}
	row, err := steer(h, vmCfg, sys, acfg.IOVAMappings, blocks, 0, int(sprayBytes/memdef.HugePageSize))
	row.SprayBytes = sprayBytes
	return row, err
}

// steerOnce is the steering ablations' measurement: steering at short
// scale on a ledgerless S1 host, in a VM without boot splits. The row
// reports the bytes actually sprayed.
func steerOnce(o Options, exhaust bool, blocks, spray int) (Table2Row, error) {
	sc := shortScale()
	cfg, acfg := o.machine(sc, SystemS1)
	h, err := kvm.NewHost(cfg)
	if err != nil {
		return Table2Row{}, err
	}
	maps := 0
	if exhaust {
		maps = acfg.IOVAMappings
	}
	return steer(h, kvm.VMConfig{MemSize: sc.vmSize, VFIOGroups: 1}, SystemS1, maps, blocks, 0, spray)
}

// steer performs one Page Steering measurement (Section 4.2) in a fresh
// VM on h and reads the hypervisor's released-PFN log and EPT-page dump
// back as a row for sys. It exhausts the noise pages with maps vIOMMU
// mappings (0 skips the step) and releases B = blocks hugepages: every
// stride-th from hugepage stride, or, with stride 0, B spread through
// the buffer from hugepage 1. spray caps the hugepages the EPT spray
// executes in; 0 sprays every hugepage still mapped.
func steer(h *kvm.Host, vmCfg kvm.VMConfig, sys System, maps, blocks, stride, spray int) (Table2Row, error) {
	vm, err := h.CreateVM(vmCfg)
	if err != nil {
		return Table2Row{}, err
	}
	gos := guest.Boot(vm)
	gos.InstallAttackDriver()

	n := gos.FreeHugepages()
	if blocks < 1 || blocks > n-1 {
		return Table2Row{}, fmt.Errorf("%w: B=%d, want 1..%d for %d hugepages", ErrBlocksOutOfRange, blocks, n-1, n)
	}
	base, err := gos.AllocHuge(n)
	if err != nil {
		return Table2Row{}, err
	}

	// Step 1: exhaust noise pages (Section 4.2.1).
	iova := memdef.IOVA(0x1_0000_0000)
	for m := 0; m < maps; m++ {
		if err := gos.MapDMA(0, iova, base); err != nil {
			return Table2Row{}, err
		}
		iova += memdef.HugePageSize
	}

	// Step 2: release B blocks (Section 4.2.2). The workload releases
	// arbitrary blocks — reuse statistics do not depend on the blocks
	// being Rowhammer-vulnerable — skipping the DMA target's hugepage.
	first := stride
	if stride == 0 {
		first, stride = 1, (n-1)/blocks
	}
	for i, released := first, 0; i < n && released < blocks; i += stride {
		if err := gos.ReleaseHugepage(base + memdef.GVA(i)*memdef.HugePageSize); err != nil {
			return Table2Row{}, err
		}
		released++
	}

	// Step 3: trigger EPT creation (Section 4.2.3).
	if spray == 0 {
		spray = n
	}
	sprayed := 0
	for i := 0; i < n && sprayed < spray; i++ {
		gva := base + memdef.GVA(i)*memdef.HugePageSize
		if _, err := gos.GPAOf(gva); err != nil {
			continue // released
		}
		if _, err := gos.Exec(gva); err != nil {
			return Table2Row{}, err
		}
		sprayed++
	}

	stats := vm.EPTReuse()
	return Table2Row{
		System:     sys,
		SprayBytes: uint64(sprayed) * memdef.HugePageSize,
		Blocks:     stats.ReleasedBlocks,
		Released:   stats.ReleasedPages,
		EPTPages:   stats.EPTPages,
		Reused:     stats.ReusedPages,
	}, nil
}
