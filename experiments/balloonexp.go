package experiments

import (
	"hyperhammer/internal/guest"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/report"
)

// BalloonRow is one release-path measurement.
type BalloonRow struct {
	// Path names the release mechanism.
	Path string
	// Released is how many pages the guest gave back to the host.
	Released int
	// TablePages is how many EPT leaf tables exist after the run.
	TablePages int
	// Reused is how many released pages ended up holding EPT leaf
	// tables.
	Reused int
}

// RN returns Reused/Released.
func (r BalloonRow) RN() float64 {
	if r.Released == 0 {
		return 0
	}
	return float64(r.Reused) / float64(r.Released)
}

// BalloonResult is the Section 6 virtio-balloon feasibility analysis,
// run end to end on the full simulated stack and compared against the
// paper's virtio-mem path.
type BalloonResult struct {
	Rows []BalloonRow
}

// Table renders the comparison.
func (r *BalloonResult) Table() *report.Table {
	t := report.NewTable("Section 6: release paths — virtio-mem vs virtio-balloon",
		"Path", "Released pages", "EPT leaf tables", "Reused", "R_N")
	for _, row := range r.Rows {
		t.AddRow(row.Path, row.Released, row.TablePages, row.Reused, report.Percent(row.RN()))
	}
	return t
}

// Balloon runs Page Steering's release-and-reuse core through both
// overcommit devices. The virtio-mem path is the paper's: released
// 2 MiB blocks land on the unmovable lists the EPT allocator draws
// from, and reuse is high. The balloon path releases single pages —
// no exhaustion granularity problem — but without VFIO the guest's
// memory is movable, so the released singles sit on the wrong side of
// the migratetype wall: EPT allocations reach them only after
// migratetype stealing has consumed every larger movable block, which
// a spray never does. The numbers quantify why the paper leaves the
// balloon variant to future work.
func Balloon(o Options) (*BalloonResult, error) {
	return planOne(o, (*Plan).Balloon)
}

// Balloon registers the virtio-mem reference and both balloon variants
// as independent units and returns the future of the comparison. Row
// order (mem reference, drained, undrained) is preserved by the
// scheduler's ordered delivery.
func (p *Plan) Balloon() *Future[*BalloonResult] {
	f := &Future[*BalloonResult]{}
	res := &BalloonResult{}
	store := func(row BalloonRow) { res.Rows = append(res.Rows, row) }
	// Reference: the paper's virtio-mem path at the same scale.
	addTyped(p, "balloon.mem-ref",
		func(o Options) (BalloonRow, error) {
			memRow, err := steerOnce(o, true, 2, 0)
			if err != nil {
				return BalloonRow{}, err
			}
			return BalloonRow{
				Path:       "virtio-mem (paper)",
				Released:   memRow.Released,
				TablePages: memRow.EPTPages,
				Reused:     memRow.Reused,
			}, nil
		}, store)
	for _, drain := range []bool{true, false} {
		drain := drain
		name := "balloon.no-drain"
		if drain {
			name = "balloon.drain"
		}
		addTyped(p, name,
			func(o Options) (BalloonRow, error) { return balloonRun(o, drain) },
			store)
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

func balloonRun(o Options, drain bool) (BalloonRow, error) {
	sc := shortScale()
	h, err := o.newHostAt(sc, SystemS1)
	if err != nil {
		return BalloonRow{}, err
	}
	// No VFIO: the balloon scenario's defining condition. Guest
	// memory is MIGRATE_MOVABLE.
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: sc.vmSize})
	if err != nil {
		return BalloonRow{}, err
	}
	vm.AttachBalloon()
	gos := guest.Boot(vm)
	n := gos.FreeHugepages()
	base, err := gos.AllocHuge(n)
	if err != nil {
		return BalloonRow{}, err
	}

	if drain {
		// The virtio-net-pci step: dry out the unmovable lists so
		// subsequent kernel allocations must steal movable blocks.
		gos.DrainNetBuffers(1 << 20)
	}

	// Release single pages across the buffer — the balloon's per-page
	// granularity in action. Track their physical frames (via the
	// experiment hypercall) for the host-side reuse count; each backs a
	// distinct guest page, so no frame appears twice.
	var released []memdef.PFN
	for i := 0; i < n; i += 4 {
		for _, pg := range []int{37, 205, 411} {
			gva := base + memdef.GVA(i)*memdef.HugePageSize + memdef.GVA(pg)*memdef.PageSize
			hpa, err := gos.Hypercall(gva)
			if err != nil {
				return BalloonRow{}, err
			}
			if err := gos.InflateBalloonPage(gva); err != nil {
				return BalloonRow{}, err
			}
			released = append(released, memdef.PFNOf(hpa))
		}
	}

	// EPT-creation pressure: execute in every remaining huge chunk.
	for i := 0; i < n; i++ {
		gva := base + memdef.GVA(i)*memdef.HugePageSize
		if _, err := gos.Exec(gva); err != nil {
			return BalloonRow{}, err
		}
	}

	reused := 0
	for _, p := range released {
		if vm.IsEPTLeaf(p) {
			reused++
		}
	}
	path := "virtio-balloon, no net drain"
	if drain {
		path = "virtio-balloon + net drain"
	}
	return BalloonRow{
		Path:       path,
		Released:   len(released),
		TablePages: vm.EPTReuse().EPTPages,
		Reused:     reused,
	}, nil
}
