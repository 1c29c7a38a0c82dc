package kvm

import (
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/virtio"
)

// bindInspector wires the host into the introspection plane: heatmap
// dimensions and the DRAM activation sink, the metrics registry the
// watchpoints read, the alert emit hook (structured trace events,
// which the obs plane relays onto its bus), the census builder, and
// the periodic evaluation tick on the simulated clock. An immediate
// evaluation anchors the census cache at boot time so live endpoints
// have data before the first tick.
func (h *Host) bindInspector() {
	ins := h.cfg.Inspect
	if ins == nil {
		return
	}
	geo := h.cfg.Geometry
	ins.BindMachine(geo.Banks(), geo.Rows())
	h.DRAM.SetActivationSink(ins)
	ins.SetMetrics(h.cfg.Metrics)
	ins.SetEmit(h.cfg.Trace.Emit)
	ins.SetCensusFunc(h.censusNow)
	h.Clock.OnTick(inspect.SampleEvery, ins.Evaluate)
	ins.Evaluate(h.Clock.Now())
}

// CensusEvent takes a census and emits its headline fields as an
// "inspect.census" trace event tagged with label. Campaigns call it
// between attack attempts so the recorded timeline carries the layout
// context each attempt ran against. No-op without an inspector.
func (h *Host) CensusEvent(label string) {
	if h.cfg.Inspect == nil {
		return
	}
	c := h.censusNow()
	h.cfg.Trace.Emit("inspect.census",
		"label", label, "vms", c.VMs,
		"splits", c.EPT.Splits, "tableFrames", c.Phys.TableFrames,
		"noisePages", c.Buddy.NoiseUnmovable, "flipsApplied", c.Phys.FlipsApplied)
}

// censusNow folds the host's current memory-layout state into one
// census. Every field is a sum or a count, so the order of the VM
// table cannot leak into the result. Runs on the simulating goroutine
// only (Evaluate ticks and unit absorption).
func (h *Host) censusNow() inspect.Census {
	c := inspect.Census{
		SimSeconds: h.Clock.Now().Seconds(),
		Geometry:   h.cfg.Geometry.Name,
		VMs:        h.VMs(),
		Crashed:    h.crashed,
		// Non-nil so the census never serializes null (the /api/census
		// contract), even on a host with no VMs yet.
		EPT: inspect.EPTCensus{TablePages: []int{}},
	}
	tables := 0
	for _, vm := range h.vms {
		if vm == nil {
			continue
		}
		tables += vm.EPTPageCount()
		l4k, l2m := vm.ept.Leaves()
		c.EPT.Leaves4K += l4k
		c.EPT.Leaves2M += l2m
		c.EPT.Splits += vm.splits
		byLevel := vm.ept.TableCountByLevel()
		if len(c.EPT.TablePages) < len(byLevel) {
			c.EPT.TablePages = append(c.EPT.TablePages,
				make([]int, len(byLevel)-len(c.EPT.TablePages))...)
		}
		for l, n := range byLevel {
			c.EPT.TablePages[l] += n
		}
		if vm.memDev != nil {
			c.Virtio.Devices++
			c.Virtio.RegionBytes += vm.memDev.RegionSize()
			c.Virtio.PluggedBytes += vm.memDev.PluggedSize()
			c.Virtio.RequestedBytes += vm.memDev.RequestedSize()
			c.Virtio.PluggedSubBlocks += int(vm.memDev.PluggedSize() / virtio.SubBlockSize)
			c.Virtio.NACKs += vm.memDev.NACKs()
		}
	}
	c.EPT.TotalTables = tables

	c.Buddy.FreePages = h.Buddy.FreePages()
	for mt := memdef.MigrateType(0); mt < memdef.NumMigrateTypes; mt++ {
		c.Buddy.PCPPages += len(h.Buddy.PCP(mt))
	}
	c.Buddy.NoiseUnmovable = h.NoisePages()
	info := h.Buddy.PageTypeInfo()
	c.Buddy.FreeBlocks = make([][]int, len(info))
	for mt := range info {
		c.Buddy.FreeBlocks[mt] = append([]int{}, info[mt][:]...)
	}

	c.Phys = inspect.PhysCensus{
		Frames:         h.Mem.Frames(),
		Materialized:   h.Mem.MaterializedFrames(),
		KernelPages:    len(h.kernelPages),
		TableFrames:    tables,
		ReleasedBlocks: len(h.releasedLog),
		FlipsApplied:   len(h.flipLog),
	}
	return c
}
