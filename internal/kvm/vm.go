package kvm

import (
	"errors"
	"fmt"
	"sort"

	"hyperhammer/internal/balloon"
	"hyperhammer/internal/dram"
	"hyperhammer/internal/ept"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/viommu"
	"hyperhammer/internal/virtio"
)

// VMConfig describes one guest VM.
type VMConfig struct {
	// MemSize is the guest memory size in bytes (2 MiB multiple).
	// All of it is managed as one virtio-mem region and fully plugged
	// at creation, matching the paper's 13 GiB attacker HVM.
	MemSize uint64
	// VFIOGroups is the number of assigned IOMMU groups (>= 1 gives
	// the VM a passed-through device with vIOMMU; pins its memory
	// MIGRATE_UNMOVABLE, Section 2.6).
	VFIOGroups int
	// BootSplits models the guest's own boot-time code execution
	// under the NX-hugepage countermeasure: kernel, init and service
	// code fetches split this many hugepages before any attack runs,
	// creating the pre-existing EPT pages that dilute the Table 2
	// counts on a real host. Zero disables it.
	BootSplits int
}

// Errors surfaced to guest accesses.
var (
	// ErrFault is a guest-visible memory fault: access to an
	// unplugged or unmapped guest physical address.
	ErrFault = errors.New("kvm: guest memory fault")
	// ErrMachineCheck is the guest-visible outcome of translating
	// through a corrupted EPT entry that points outside physical
	// memory.
	ErrMachineCheck = errors.New("kvm: machine check (EPT misconfiguration)")
	// ErrNoExec reports an instruction fetch from a non-executable
	// mapping when the multihit countermeasure cannot help (no
	// hugepage to split).
	ErrNoExec = errors.New("kvm: execute permission fault")
)

// chunkBacking records the host frames backing one 2 MiB guest chunk.
type chunkBacking struct {
	// huge means the chunk is backed by one order-9 block starting at
	// frames[0] (THP). Otherwise frames lists all 512 backing pages.
	huge   bool
	frames []memdef.PFN
}

// tlbEntry caches the location of the translation structure for one
// guest chunk. Split chunks re-read their leaf EPTEs on every access
// (the walker honours current memory contents); huge chunks cache the
// physical base.
type tlbEntry struct {
	huge bool
	// basePFN is the backing base frame for huge chunks.
	basePFN memdef.PFN
	// leafTable is the leaf EPT table frame for split chunks.
	leafTable memdef.PFN
}

// VM is one guest virtual machine.
type VM struct {
	host *Host
	cfg  VMConfig
	// id numbers the VM in host creation order (1-based), for stable
	// naming in traces and forensics owner records.
	id int

	ept      *ept.Table
	eptAlloc *tableAllocator

	memDev *virtio.MemDevice
	groups []*viommu.Group

	// backing maps each plugged 2 MiB chunk base GPA to its host
	// frames. It is hypervisor truth, independent of EPT contents.
	backing map[memdef.GPA]*chunkBacking
	// reverse maps backing frames to GPAs for flip attribution: a huge
	// chunk's base frame to the chunk GPA, every 4 KiB backing frame to
	// its own page GPA.
	reverse map[memdef.PFN]memdef.GPA

	tlb map[memdef.GPA]tlbEntry

	// splits counts multihit-countermeasure hugepage splits.
	splits int

	// balloon is the VM's virtio-balloon device, if configured.
	balloon *balloon.Device
	// netBuffers are unmovable pages held by the simulated NIC after
	// DrainNetBuffers.
	netBuffers []memdef.PFN

	// scanChunks is AppendChangedMappings' reusable chunk-ordering
	// scratch; scanDirty marks it stale after plug/unplug changes the
	// backing map's key set.
	scanChunks []memdef.GPA
	scanDirty  bool

	// batchRefs/batchOps are HammerBatchGPA's reusable translation
	// buffers (the DRAM module does not retain them past the call).
	batchRefs []dram.RowRef
	batchOps  []dram.HammerOp

	destroyed bool
}

// backingMT returns the migration type of the VM's memory: pinned
// MIGRATE_UNMOVABLE when a VFIO device is assigned (Section 2.6),
// ordinary MIGRATE_MOVABLE otherwise — the configuration the paper's
// Section 6 balloon analysis assumes.
func (vm *VM) backingMT() memdef.MigrateType {
	if vm.cfg.VFIOGroups > 0 {
		return memdef.MigrateUnmovable
	}
	return memdef.MigrateMovable
}

// tableAllocator provides EPT/IOPT table pages from the host buddy
// allocator as order-0 MIGRATE_UNMOVABLE pages through the PCP — the
// allocation path Page Steering aims at.
type tableAllocator struct {
	h     *Host
	vm    *VM
	count int
}

func (a *tableAllocator) AllocTable() (memdef.PFN, error) {
	p, err := a.h.Buddy.AllocPage(memdef.MigrateUnmovable)
	if err != nil {
		return 0, err
	}
	a.h.Mem.ZeroPage(p)
	a.h.registerTable(p, a.vm)
	a.count++
	return p, nil
}

func (a *tableAllocator) FreeTable(p memdef.PFN) {
	a.h.unregisterTable(p)
	a.h.Buddy.FreePage(p, memdef.MigrateUnmovable)
	a.count--
}

// CreateVM builds and boots a guest: allocates its EPT, creates the
// virtio-mem device covering all guest memory, plugs every sub-block
// (allocating THP-backed host memory pinned unmovable for VFIO), and
// attaches the requested IOMMU groups.
func (h *Host) CreateVM(cfg VMConfig) (*VM, error) {
	if cfg.MemSize == 0 || cfg.MemSize%memdef.HugePageSize != 0 {
		return nil, fmt.Errorf("kvm: VM memory size %#x not a 2 MiB multiple", cfg.MemSize)
	}
	h.vmSeq++
	vm := &VM{
		host:    h,
		cfg:     cfg,
		id:      h.vmSeq,
		backing: make(map[memdef.GPA]*chunkBacking),
		reverse: make(map[memdef.PFN]memdef.GPA),
		tlb:     make(map[memdef.GPA]tlbEntry),
	}
	vm.eptAlloc = &tableAllocator{h: h, vm: vm}
	t, err := ept.New(h.Mem, vm.eptAlloc)
	if err != nil {
		return nil, fmt.Errorf("kvm: creating EPT: %w", err)
	}
	vm.ept = t
	t.SetMetrics(h.cfg.Metrics)
	t.SetLedger(h.ledEPT)

	dev, err := virtio.NewMemDevice(0, cfg.MemSize, (*vmMemBackend)(vm), h.cfg.Quarantine)
	if err != nil {
		return nil, fmt.Errorf("kvm: creating virtio-mem: %w", err)
	}
	vm.memDev = dev
	dev.SetMetrics(h.cfg.Metrics)
	dev.SetRequestedSize(cfg.MemSize)
	for gpa := memdef.GPA(0); uint64(gpa) < cfg.MemSize; gpa += memdef.HugePageSize {
		if err := dev.Plug(gpa); err != nil {
			vm.Destroy()
			return nil, fmt.Errorf("kvm: plugging boot memory at %#x: %w", gpa, err)
		}
	}

	for i := 0; i < cfg.VFIOGroups; i++ {
		g, err := viommu.NewGroup(h.Mem, vm.eptAlloc, (*vmIOMMUBackend)(vm))
		if err != nil {
			vm.Destroy()
			return nil, fmt.Errorf("kvm: creating IOMMU group %d: %w", i, err)
		}
		g.SetMetrics(h.cfg.Metrics)
		g.SetLedger(h.ledEPT)
		vm.groups = append(vm.groups, g)
	}
	h.vms[vm] = struct{}{}
	h.met.vmsCreated.Inc()
	h.cfg.Trace.Emit("vm.create",
		"memBytes", cfg.MemSize, "vfioGroups", cfg.VFIOGroups, "bootSplits", cfg.BootSplits)

	// Guest boot: executing kernel/init/service code trips the NX-
	// hugepage countermeasure across the address space.
	if cfg.BootSplits > 0 {
		chunks := int(cfg.MemSize / memdef.HugePageSize)
		stride := chunks / cfg.BootSplits
		if stride < 1 {
			stride = 1
		}
		for c := 0; c < chunks; c += stride {
			if _, err := vm.ExecGPA(memdef.GPA(c) * memdef.HugePageSize); err != nil {
				vm.Destroy()
				return nil, fmt.Errorf("kvm: boot exec at chunk %d: %w", c, err)
			}
		}
	}
	return vm, nil
}

// Host returns the host the VM runs on (host-side instrumentation).
func (vm *VM) Host() *Host { return vm.host }

// ID returns the VM's host-assigned creation-order number (1-based).
func (vm *VM) ID() int { return vm.id }

// Config returns the VM's configuration.
func (vm *VM) Config() VMConfig { return vm.cfg }

// MemDevice returns the VM's virtio-mem device, to which the guest
// kernel attaches its driver.
func (vm *VM) MemDevice() *virtio.MemDevice { return vm.memDev }

// IOMMUGroups returns the number of assigned IOMMU groups.
func (vm *VM) IOMMUGroups() int { return len(vm.groups) }

// Splits returns how many multihit hugepage splits have occurred.
func (vm *VM) Splits() int { return vm.splits }

// EPTTablePages returns the frames of the VM's EPT table pages at a
// level (1 = leaf), host instrumentation for Table 2's dump function.
func (vm *VM) EPTTablePages(level int) []memdef.PFN { return vm.ept.TablePages(level) }

// EPTPageCount returns the total EPT+IOPT table pages allocated.
func (vm *VM) EPTPageCount() int { return vm.eptAlloc.count }

func (vm *VM) flushTLB() {
	if len(vm.tlb) > 0 {
		vm.tlb = make(map[memdef.GPA]tlbEntry)
	}
}

// vmMemBackend implements virtio.MemBackend on the VM.
type vmMemBackend VM

// PlugRange allocates pinned (MIGRATE_UNMOVABLE, Section 2.6) host
// backing for a guest range and maps it in the EPT. With THP the
// backing is one order-9 block mapped as a 2 MiB leaf — non-executable
// when the multihit countermeasure is on.
func (b *vmMemBackend) PlugRange(gpa memdef.GPA, size uint64) error {
	vm := (*VM)(b)
	h := vm.host
	if size != memdef.HugePageSize {
		return fmt.Errorf("kvm: plug size %#x unsupported", size)
	}
	if h.cfg.THP {
		base, err := h.Buddy.Alloc(memdef.HugeOrder, vm.backingMT())
		if err != nil {
			return fmt.Errorf("kvm: backing alloc: %w", err)
		}
		perm := ept.PermRWX
		if h.cfg.NXHugepages {
			perm = ept.PermRW
		}
		if err := vm.ept.Map2M(uint64(gpa), base, perm); err != nil {
			h.Buddy.Free(base, memdef.HugeOrder, vm.backingMT())
			return fmt.Errorf("kvm: mapping chunk %#x: %w", gpa, err)
		}
		for i := memdef.PFN(0); i < memdef.PagesPerHuge; i++ {
			h.Mem.ZeroPage(base + i)
		}
		vm.backing[gpa] = &chunkBacking{huge: true, frames: []memdef.PFN{base}}
		vm.reverse[base] = gpa
		vm.scanDirty = true
		vm.flushChunk(gpa)
		return nil
	}
	// THP disabled: scatter 4 KiB pages, 4 KiB mappings (executable:
	// the 4 KiB iTLB is not vulnerable, Section 4.2.3).
	frames := make([]memdef.PFN, memdef.PagesPerHuge)
	for i := range frames {
		p, err := h.Buddy.AllocPage(vm.backingMT())
		if err != nil {
			return fmt.Errorf("kvm: backing alloc: %w", err)
		}
		h.Mem.ZeroPage(p)
		if err := vm.ept.Map4K(uint64(gpa)+uint64(i)*memdef.PageSize, p, ept.PermRWX); err != nil {
			return fmt.Errorf("kvm: mapping page: %w", err)
		}
		frames[i] = p
		vm.reverse[p] = gpa + memdef.GPA(uint64(i)*memdef.PageSize)
	}
	vm.backing[gpa] = &chunkBacking{frames: frames}
	vm.scanDirty = true
	vm.flushChunk(gpa)
	return nil
}

// UnplugRange releases a guest range: unmaps it from the EPT and
// returns the backing to the host buddy allocator — with THP, as one
// order-9 MIGRATE_UNMOVABLE free block, the state Page Steering needs
// (Section 4.2.2). The released block is logged for the Table 2
// instrumentation.
func (b *vmMemBackend) UnplugRange(gpa memdef.GPA, size uint64) error {
	vm := (*VM)(b)
	h := vm.host
	if size != memdef.HugePageSize {
		return fmt.Errorf("kvm: unplug size %#x unsupported", size)
	}
	cb, ok := vm.backing[gpa]
	if !ok {
		return fmt.Errorf("kvm: unplug of unbacked chunk %#x", gpa)
	}
	h.Clock.Advance(simtime.VirtioUnplug)
	if cb.huge {
		base := cb.frames[0]
		// The chunk may have been split by the multihit
		// countermeasure. The first Unmap removes a 2 MiB leaf whole;
		// on a split chunk it removes only the first 4 KiB entry and
		// the loop clears the rest (harmless no-ops otherwise). The
		// backing frames are the contiguous order-9 block either way,
		// which madvise(DONTNEED) returns whole to the buddy system.
		for i := 0; i < memdef.PagesPerHuge; i++ {
			_, _ = vm.ept.Unmap(uint64(gpa) + uint64(i)*memdef.PageSize)
		}
		delete(vm.reverse, base)
		h.Buddy.Free(base, memdef.HugeOrder, vm.backingMT())
		h.releasedLog = append(h.releasedLog, base)
		h.cfg.Trace.Emit("virtio.unplug", "gpa", fmt.Sprintf("%#x", gpa), "basePFN", uint64(base))
	} else {
		for i, p := range cb.frames {
			if p == reclaimedFrame {
				continue // already given up via the balloon
			}
			_, _ = vm.ept.Unmap(uint64(gpa) + uint64(i)*memdef.PageSize)
			delete(vm.reverse, p)
			h.Buddy.FreePage(p, vm.backingMT())
		}
	}
	delete(vm.backing, gpa)
	vm.scanDirty = true
	vm.flushChunk(gpa)
	return nil
}

func (vm *VM) flushChunk(gpa memdef.GPA) { delete(vm.tlb, memdef.HugeBase(gpa)) }

// vmIOMMUBackend implements viommu.Backend on the VM.
type vmIOMMUBackend VM

// ResolveGPA pins and resolves the host frame backing a guest page
// for DMA mapping.
func (b *vmIOMMUBackend) ResolveGPA(gpa memdef.GPA) (memdef.PFN, error) {
	vm := (*VM)(b)
	hpa, err := vm.translate(gpa)
	if err != nil {
		return 0, err
	}
	return memdef.PFNOf(hpa), nil
}

// translate resolves a guest physical address to a host physical
// address through the VM's EPT, honouring whatever the table words
// currently contain. Split chunks re-read their leaf entry on every
// access, so EPTE corruption and attacker writes to stolen EPT pages
// take effect immediately.
func (vm *VM) translate(gpa memdef.GPA) (memdef.HPA, error) {
	if vm.host.crashed {
		return 0, ErrHostDown
	}
	e, err := vm.chunkEntry(gpa)
	if err != nil {
		return 0, err
	}
	return vm.resolveInChunk(e, gpa)
}

// chunkEntry resolves (and caches) the location of the translation
// structure for the 2 MiB chunk containing gpa.
func (vm *VM) chunkEntry(gpa memdef.GPA) (tlbEntry, error) {
	chunk := memdef.HugeBase(gpa)
	e, ok := vm.tlb[chunk]
	if !ok {
		tr, err := vm.ept.Translate(uint64(gpa))
		if err != nil {
			switch {
			case errors.Is(err, ept.ErrNotMapped):
				return tlbEntry{}, ErrFault
			case errors.Is(err, ept.ErrMisconfigured):
				return tlbEntry{}, ErrMachineCheck
			default:
				return tlbEntry{}, err
			}
		}
		if tr.Level == 2 {
			e = tlbEntry{huge: true, basePFN: memdef.PFNOf(tr.HPA - memdef.HPA(gpa-chunk))}
		} else {
			e = tlbEntry{leafTable: memdef.PFNOf(tr.EntryAddr)}
		}
		vm.tlb[chunk] = e
	}
	return e, nil
}

// resolveInChunk finishes a translation below an already-resolved
// chunk entry. Split chunks re-read their leaf EPTE from memory here,
// on every access.
func (vm *VM) resolveInChunk(e tlbEntry, gpa memdef.GPA) (memdef.HPA, error) {
	if e.huge {
		return e.basePFN.HPAOf() + memdef.HPA(gpa-memdef.HugeBase(gpa)), nil
	}
	idx := int(uint64(gpa)>>memdef.PageShift) & (memdef.EntriesPerTable - 1)
	entry := ept.Entry(vm.host.Mem.PageWord(e.leafTable, idx))
	if !entry.Present() {
		return 0, ErrFault
	}
	hpa := entry.PFN().HPAOf() + memdef.HPA(memdef.PageOffset(gpa))
	if uint64(memdef.PFNOf(hpa)) >= uint64(vm.host.Mem.Frames()) {
		return 0, ErrMachineCheck
	}
	return hpa, nil
}

// ReadGPA64 reads a 64-bit word at an 8-byte-aligned guest physical
// address.
func (vm *VM) ReadGPA64(gpa memdef.GPA) (uint64, error) {
	hpa, err := vm.translate(gpa)
	if err != nil {
		return 0, err
	}
	return vm.host.Mem.Word(hpa), nil
}

// WriteGPA64 writes a 64-bit word at an 8-byte-aligned guest physical
// address. If the write lands in a live table frame (because a flip
// redirected the mapping there), the affected VM's cached translations
// are invalidated — the mechanism that makes stolen EPT pages
// immediately effective.
func (vm *VM) WriteGPA64(gpa memdef.GPA, v uint64) error {
	hpa, err := vm.translate(gpa)
	if err != nil {
		return err
	}
	vm.host.Mem.SetWord(hpa, v)
	vm.host.noteWrite(hpa)
	return nil
}

// FillPagesGPA fills count consecutive 4 KiB guest pages starting at
// the page-aligned gpa, page k with wordAt(k). Pages are filled one at
// a time in address order: an error surfaces at the page that caused
// it, each page charges one page-write of virtual time before its
// contents change, and a write landing in a live table frame
// invalidates cached translations before the next page resolves. The
// chunk-level translation is looked up once per 2 MiB run.
func (vm *VM) FillPagesGPA(gpa memdef.GPA, count int, wordAt func(k int) uint64) error {
	h := vm.host
	k := 0
	for k < count {
		if h.crashed {
			return ErrHostDown
		}
		e, err := vm.chunkEntry(gpa)
		if err != nil {
			return err
		}
		chunk := memdef.HugeBase(gpa)
		n := int((uint64(chunk) + memdef.HugePageSize - uint64(gpa)) / memdef.PageSize)
		if n > count-k {
			n = count - k
		}
		flushed := false
		for j := 0; j < n && !flushed; j++ {
			hpa, err := vm.resolveInChunk(e, gpa)
			if err != nil {
				return err
			}
			h.Clock.Advance(simtime.PageWrite)
			h.Mem.FillWord(memdef.PFNOf(hpa), wordAt(k))
			// A fill that hits a live table frame flushes cached
			// translations; drop the chunk entry and re-resolve.
			flushed = h.noteWrite(hpa)
			gpa += memdef.PageSize
			k++
		}
	}
	return nil
}

// PageUniformGPA reports whether the guest page at gpa holds one
// repeated word and which, charging one page-scan of virtual time.
// Observationally it equals 512 ReadGPA64 calls.
func (vm *VM) PageUniformGPA(gpa memdef.GPA) (uint64, bool, error) {
	hpa, err := vm.translate(gpa)
	if err != nil {
		return 0, false, err
	}
	vm.host.Clock.Advance(simtime.PageScan)
	w, ok := vm.host.Mem.PageUniform(memdef.PFNOf(hpa))
	return w, ok, nil
}

// ExecGPA models the guest executing code at gpa. Under the multihit
// countermeasure, the first fetch from a non-executable hugepage traps
// to the hypervisor, which splits the hugepage into 512 executable
// 4 KiB mappings — allocating one fresh EPT leaf page in the process
// (Section 4.2.3). Returns whether a split occurred.
func (vm *VM) ExecGPA(gpa memdef.GPA) (bool, error) {
	tr, err := vm.ept.Translate(uint64(gpa))
	if err != nil {
		switch {
		case errors.Is(err, ept.ErrNotMapped):
			return false, ErrFault
		case errors.Is(err, ept.ErrMisconfigured):
			return false, ErrMachineCheck
		}
		return false, err
	}
	if tr.Perm&ept.PermExec != 0 {
		return false, nil
	}
	if tr.Level == 1 {
		// A non-executable 4 KiB mapping (e.g. from a balloon-driven
		// data split): KVM simply sets X on the small entry — the
		// 4 KiB iTLB is not affected by the erratum.
		if err := vm.ept.SetLeafPerm(uint64(gpa), tr.Perm|ept.PermExec); err != nil {
			return false, fmt.Errorf("kvm: granting exec: %w", err)
		}
		vm.flushChunk(memdef.HugeBase(gpa))
		return false, nil
	}
	if !vm.host.cfg.NXHugepages {
		return false, ErrNoExec
	}
	leaf, err := vm.ept.SplitHuge(uint64(gpa), ept.PermRWX)
	if err != nil {
		return false, fmt.Errorf("kvm: multihit split: %w", err)
	}
	vm.splits++
	vm.host.Clock.Advance(simtime.HugepageSplit)
	vm.flushChunk(memdef.HugeBase(gpa))
	vm.host.cfg.Trace.Emit("ept.split", "gpa", fmt.Sprintf("%#x", memdef.HugeBase(gpa)), "leafPFN", uint64(leaf))
	return true, nil
}

// HammerBatchOp is one hammer operation named by guest physical
// addresses: every aggressor row is activated Rounds times.
type HammerBatchOp struct {
	Aggressors []memdef.GPA
	Rounds     int
}

// HammerBatchGPA performs the Rowhammer access loop for each op in
// turn. Candidate flips from the fault model are committed to physical
// memory. The guest learns nothing from the call itself — it must scan
// memory to find flips.
//
// Batch contract:
//
//   - Every op's aggressors are translated up front, so an address
//     error fails the batch before any op charges the clock.
//   - Each op then runs as a one-op batch would: the hammer metrics,
//     the clock charge (tick hooks see the state the previous op
//     left), the DRAM fault model, flip application.
//   - After each op but the last: if its flips machine-checked the
//     host, the batch ends with ErrHostDown; if one landed in a live
//     translation-table frame, the remaining ops are re-translated and
//     the batch ends with a divergence error if any aggressor moved,
//     where one-op submission would have hammered the new rows. Either
//     way no later op is evaluated.
func (vm *VM) HammerBatchGPA(batch []HammerBatchOp) error {
	h := vm.host
	geo := h.DRAM.Geo
	refs := vm.batchRefs[:0]
	dops := vm.batchOps[:0]
	for _, b := range batch {
		off := len(refs)
		for _, a := range b.Aggressors {
			hpa, err := vm.translate(a)
			if err != nil {
				return err
			}
			refs = append(refs, dram.RowRef{Bank: geo.Bank(hpa), Row: geo.Row(hpa)})
		}
		dops = append(dops, dram.HammerOp{
			Aggressors: refs[off:len(refs):len(refs)],
			Rounds:     b.Rounds,
		})
	}
	vm.batchRefs, vm.batchOps = refs, dops
	for i, op := range dops {
		h.met.hammerOps.Inc()
		h.met.hammerRounds.Add(uint64(op.Rounds))
		h.met.hammerActs.Add(uint64(op.Activations()))
		h.Clock.Charge(op.Activations(), simtime.RowActivation)
		flips := h.DRAM.Hammer(op)
		applied := h.applyFlips(flips)
		if i == len(dops)-1 {
			break
		}
		if h.crashed {
			return ErrHostDown
		}
		if applied > 0 && h.flipsHitTables(flips) {
			if err := vm.verifyBatchTranslations(batch, dops, i+1); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyBatchTranslations re-translates the remaining ops' aggressors
// after a flip corrupted a live table frame, comparing against the
// batch's eager translation. Any movement means the batch can no
// longer reproduce one-op submission and must abort.
func (vm *VM) verifyBatchTranslations(batch []HammerBatchOp, dops []dram.HammerOp, from int) error {
	geo := vm.host.DRAM.Geo
	for i := from; i < len(batch); i++ {
		for j, a := range batch[i].Aggressors {
			hpa, err := vm.translate(a)
			if err != nil {
				return fmt.Errorf("kvm: hammer batch diverged at op %d (%#x): %w", i, uint64(a), err)
			}
			got := dram.RowRef{Bank: geo.Bank(hpa), Row: geo.Row(hpa)}
			if got != dops[i].Aggressors[j] {
				return fmt.Errorf("kvm: hammer batch diverged at op %d: aggressor %#x translation moved", i, uint64(a))
			}
		}
	}
	return nil
}

// MapDMA creates a vIOMMU mapping in the given group from iova to the
// guest page at gpa, consuming host IOPT pages as needed.
func (vm *VM) MapDMA(group int, iova memdef.IOVA, gpa memdef.GPA) error {
	if group < 0 || group >= len(vm.groups) {
		return fmt.Errorf("kvm: no IOMMU group %d", group)
	}
	vm.host.Clock.Advance(simtime.IOVAMap)
	return vm.groups[group].Map(iova, gpa)
}

// GroupMappings returns the live mapping count of an IOMMU group.
func (vm *VM) GroupMappings(group int) int { return vm.groups[group].Mappings() }

// HypercallGPAToHPA is the debug hypercall the paper adds for the
// Section 5.3.2 experiment, letting the (experimental) guest reuse
// profiling results across VM respawns. It is not available to the
// end-to-end attacker.
func (vm *VM) HypercallGPAToHPA(gpa memdef.GPA) (memdef.HPA, error) {
	vm.host.Clock.Advance(simtime.Hypercall)
	return vm.translate(gpa)
}

// TriggerMultihitDoS models a malicious guest exercising the iTLB
// Multihit erratum (Section 4.2.3): it loads a 2 MiB iTLB entry for
// one of its executable hugepages and then changes the page size under
// it, leaving a stale hugepage translation alongside fresh 4 KiB ones.
// On an affected CPU without the NX-hugepage countermeasure this
// machine-checks the host — the denial of service the countermeasure
// (which HyperHammer then exploits) was deployed to stop. It returns
// whether the host crashed.
func (vm *VM) TriggerMultihitDoS(gpa memdef.GPA) (bool, error) {
	if vm.host.crashed {
		return true, ErrHostDown
	}
	tr, err := vm.ept.Translate(uint64(memdef.HugeBase(gpa)))
	if err != nil {
		return false, ErrFault
	}
	if tr.Level != 2 {
		return false, nil // already 4 KiB-mapped; no hugepage iTLB entry
	}
	if tr.Perm&ept.PermExec == 0 {
		// The countermeasure: hugepages are never executable, so the
		// 2 MiB iTLB entry that the erratum needs is never created.
		return false, nil
	}
	if !vm.host.cfg.MultihitBugPresent {
		return false, nil // unaffected CPU
	}
	// Stale 2 MiB iTLB entry + concurrent 4 KiB translation: machine
	// check, host down.
	vm.host.crashed = true
	vm.host.met.machineChecks.Inc()
	vm.host.cfg.Trace.Emit("host.machinecheck", "cause", "itlb-multihit")
	return true, nil
}

// Destroy tears the VM down, returning all backing memory, EPT and
// IOPT pages to the host.
func (vm *VM) Destroy() {
	if vm.destroyed {
		return
	}
	vm.destroyed = true
	// Teardown order mirrors KVM: the MMU (EPT and IOPT table pages)
	// is destroyed before the guest's memory is released back to the
	// kernel. The order is visible in the host's free-list LIFO
	// structure, and therefore in where a respawned VM's memory comes
	// from.
	for _, g := range vm.groups {
		g.Destroy()
	}
	vm.groups = nil
	vm.ept.Destroy()
	// Free backing in address order so the host allocator ends up in
	// a deterministic state regardless of map iteration order.
	chunks := make([]memdef.GPA, 0, len(vm.backing))
	for gpa := range vm.backing {
		chunks = append(chunks, gpa)
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
	for _, gpa := range chunks {
		cb := vm.backing[gpa]
		if cb.huge {
			vm.host.Buddy.Free(cb.frames[0], memdef.HugeOrder, vm.backingMT())
		} else {
			for _, p := range cb.frames {
				if p == reclaimedFrame {
					continue
				}
				vm.host.Buddy.FreePage(p, vm.backingMT())
			}
		}
		delete(vm.backing, gpa)
	}
	for _, p := range vm.netBuffers {
		vm.host.Buddy.FreePage(p, memdef.MigrateUnmovable)
	}
	vm.netBuffers = nil
	vm.reverse = nil
	delete(vm.host.vms, vm)
	vm.host.met.vmsDestroyed.Inc()
	vm.host.cfg.Trace.Emit("vm.destroy", "memBytes", vm.cfg.MemSize)
}
