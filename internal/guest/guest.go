// Package guest models the attacker-controlled guest: a minimal OS
// runtime inside the VM offering exactly the capabilities the paper's
// attacker has — THP-backed hugepage allocations, ordinary memory
// access, code execution, the (modified) virtio-mem driver, vIOMMU DMA
// mapping, and cache-flush hammer loops.
//
// Everything the attack does goes through this package; it never
// touches host state. The one exception, Hypercall, is the explicit
// debug hypercall the paper adds for its Section 5.3.2 experiment.
package guest

import (
	"errors"
	"fmt"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/ept"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/virtio"
)

// KernelReserve is the guest physical memory the guest kernel itself
// occupies; the attacker cannot allocate or release it.
const KernelReserve = 64 * memdef.MiB

// Errors surfaced to the attacker runtime.
var (
	// ErrNoMemory reports guest hugepage-pool exhaustion.
	ErrNoMemory = errors.New("guest: out of hugepages")
	// ErrBadAddress reports access through an unmapped guest virtual
	// address.
	ErrBadAddress = errors.New("guest: bad virtual address")
)

// gvaBase is where the guest heap starts; purely cosmetic.
const gvaBase = memdef.GVA(0x7F00_0000_0000)

// OS is the guest operating system runtime.
type OS struct {
	vm  *kvm.VM
	drv *virtio.GuestDriver

	// pt is the guest's real paging structure: 2 MiB THP leaves in
	// table pages that live inside the kernel reserve.
	pt *ept.Table
	// freeChunks is the guest's pool of unallocated 2 MiB physical
	// chunks (LIFO).
	freeChunks []memdef.GPA
	// vmas caches each allocated 2 MiB virtual region's physical
	// chunk (the guest TLB analogue of pt); rmap is the inverse.
	vmas map[memdef.GVA]memdef.GPA
	rmap map[memdef.GPA]memdef.GVA

	nextGVA memdef.GVA

	flipCursor int

	// scanBuf is the reusable hypervisor-level scan buffer behind
	// AppendMappingChanges; overwritten on every scan.
	scanBuf []kvm.MappingChange

	// fill/fillFn are the reusable word supplier behind FillPages and
	// FillPagesSelf — one cached closure reading OS state, so bulk
	// fills allocate nothing per call.
	fill   fillCtx
	fillFn func(k int) uint64

	// gpaScratch/hammerBatch are Hammer's reusable translation
	// buffers.
	gpaScratch  []memdef.GPA
	hammerBatch []kvm.HammerBatchOp

	// led is the host's "guest.mapping" determinism stream; nil when
	// the host runs without a ledger. Mapping installs and removals
	// fold their (event, gva, gpa) triples here.
	led *ledger.Stream
}

// Ledger event codes for the guest.mapping determinism stream.
const (
	ledGuestMap = uint64(iota + 1)
	ledGuestUnmap
)

// fillCtx parameterizes the cached fill-word supplier: a constant
// word, or (self) each page's own virtual address — the exploit
// step's page-marking pattern.
type fillCtx struct {
	word uint64
	base memdef.GVA
	self bool
}

// Boot initializes the guest OS on a VM: attaches the virtio-mem
// driver and builds the hugepage pool from all plugged memory above
// the kernel reserve.
func Boot(vm *kvm.VM) *OS {
	os := &OS{
		vm:      vm,
		vmas:    make(map[memdef.GVA]memdef.GPA),
		rmap:    make(map[memdef.GPA]memdef.GVA),
		nextGVA: gvaBase,
	}
	os.led = vm.Host().GuestMappingLedger()
	os.drv = virtio.NewGuestDriver(vm.MemDevice())
	os.drv.OnUnplug = func(gpa memdef.GPA, _ uint64) { os.dropChunk(gpa) }
	for _, gpa := range vm.MemDevice().PluggedSubBlocks() {
		if uint64(gpa) < KernelReserve {
			continue
		}
		os.freeChunks = append(os.freeChunks, gpa)
	}
	os.initPageTables()
	return os
}

// VM returns the underlying VM handle for host-side instrumentation in
// experiments; attack code must not use it.
func (os *OS) VM() *kvm.VM { return os.vm }

// Driver returns the guest's virtio-mem driver.
func (os *OS) Driver() *virtio.GuestDriver { return os.drv }

// InstallAttackDriver applies the paper's driver modification that
// suppresses automatic re-plugging (Section 4.2.2), so voluntary
// releases stick.
func (os *OS) InstallAttackDriver() { os.drv.SuppressAutoPlug = true }

// FreeHugepages returns the number of unallocated 2 MiB chunks.
func (os *OS) FreeHugepages() int { return len(os.freeChunks) }

// dropChunk removes a released chunk from the free pool (driver
// unplug callback).
func (os *OS) dropChunk(gpa memdef.GPA) {
	for i, c := range os.freeChunks {
		if c == gpa {
			os.freeChunks = append(os.freeChunks[:i], os.freeChunks[i+1:]...)
			return
		}
	}
}

// AllocHuge allocates n hugepages of virtually contiguous memory with
// THP, returning the base virtual address. The backing guest-physical
// chunks are 2 MiB aligned but not necessarily contiguous — exactly
// the THP guarantee the attack relies on.
func (os *OS) AllocHuge(n int) (memdef.GVA, error) {
	if n <= 0 || n > len(os.freeChunks) {
		return 0, fmt.Errorf("%w: want %d, have %d", ErrNoMemory, n, len(os.freeChunks))
	}
	base := os.nextGVA
	for i := 0; i < n; i++ {
		gpa := os.freeChunks[len(os.freeChunks)-1]
		os.freeChunks = os.freeChunks[:len(os.freeChunks)-1]
		os.mapHuge(base+memdef.GVA(i)*memdef.HugePageSize, gpa)
	}
	os.nextGVA += memdef.GVA(n) * memdef.HugePageSize
	return base, nil
}

// FreeHuge returns n hugepages starting at base to the guest pool.
func (os *OS) FreeHuge(base memdef.GVA, n int) error {
	for i := 0; i < n; i++ {
		gva := base + memdef.GVA(i)*memdef.HugePageSize
		gpa, ok := os.vmas[gva]
		if !ok {
			return fmt.Errorf("%w: %#x", ErrBadAddress, gva)
		}
		os.unmapHuge(gva)
		os.freeChunks = append(os.freeChunks, gpa)
	}
	return nil
}

// GPAOf translates a guest virtual address through the guest's own
// page tables — knowledge the guest legitimately has.
func (os *OS) GPAOf(gva memdef.GVA) (memdef.GPA, error) {
	chunk := memdef.HugeBase(gva)
	gpa, ok := os.vmas[chunk]
	if !ok {
		return 0, fmt.Errorf("%w: %#x", ErrBadAddress, gva)
	}
	return gpa + memdef.GPA(gva-chunk), nil
}

// gvaOfGPA reverse-translates a guest physical address, if mapped.
func (os *OS) gvaOfGPA(gpa memdef.GPA) (memdef.GVA, bool) {
	chunk := memdef.HugeBase(gpa)
	gva, ok := os.rmap[chunk]
	if !ok {
		return 0, false
	}
	return gva + memdef.GVA(gpa-chunk), true
}

// Read64 reads the 64-bit word at an 8-byte-aligned virtual address.
func (os *OS) Read64(gva memdef.GVA) (uint64, error) {
	gpa, err := os.GPAOf(gva)
	if err != nil {
		return 0, err
	}
	return os.vm.ReadGPA64(gpa)
}

// Write64 writes the 64-bit word at an 8-byte-aligned virtual address.
func (os *OS) Write64(gva memdef.GVA, v uint64) error {
	gpa, err := os.GPAOf(gva)
	if err != nil {
		return err
	}
	return os.vm.WriteGPA64(gpa, v)
}

// FillPages fills count consecutive 4 KiB pages starting at the
// page-aligned gva with a repeated word, one page-write of virtual time
// per page; an error surfaces at the page that caused it (see
// kvm.FillPagesGPA).
func (os *OS) FillPages(gva memdef.GVA, count int, word uint64) error {
	os.fill = fillCtx{word: word}
	return os.fillPages(gva, count)
}

// FillPagesSelf fills each of count pages from gva with the page's own
// virtual address — the exploit step's marking pattern, which lets a
// later read identify which page a remapped translation exposes.
func (os *OS) FillPagesSelf(gva memdef.GVA, count int) error {
	os.fill = fillCtx{self: true}
	return os.fillPages(gva, count)
}

func (os *OS) fillPages(gva memdef.GVA, count int) error {
	if os.fillFn == nil {
		os.fillFn = func(k int) uint64 {
			if os.fill.self {
				return uint64(os.fill.base + memdef.GVA(k)*memdef.PageSize)
			}
			return os.fill.word
		}
	}
	k := 0
	for k < count {
		chunk := memdef.HugeBase(gva)
		n := int((uint64(chunk) + memdef.HugePageSize - uint64(gva)) / memdef.PageSize)
		if n > count-k {
			n = count - k
		}
		gpa, err := os.GPAOf(gva)
		if err != nil {
			return err
		}
		os.fill.base = gva
		if err := os.vm.FillPagesGPA(gpa, n, os.fillFn); err != nil {
			return err
		}
		gva += memdef.GVA(n) * memdef.PageSize
		k += n
	}
	return nil
}

// PageUniform reports whether the page at gva holds a single repeated
// word, and which.
func (os *OS) PageUniform(gva memdef.GVA) (uint64, bool, error) {
	gpa, err := os.GPAOf(gva)
	if err != nil {
		return 0, false, err
	}
	return os.vm.PageUniformGPA(gpa)
}

// Exec executes code previously written at gva (the paper's idling
// function of Listing 1). Under the multihit countermeasure the first
// execution in a hugepage forces the hypervisor to split it. Returns
// whether a split occurred — observable to the guest as a one-off
// execution delay.
func (os *OS) Exec(gva memdef.GVA) (bool, error) {
	gpa, err := os.GPAOf(gva)
	if err != nil {
		return false, err
	}
	return os.vm.ExecGPA(gpa)
}

// HammerSpec is one hammer operation: an aggressor set in guest
// virtual addresses, each row activated Rounds times.
type HammerSpec struct {
	Aggressors []memdef.GVA
	Rounds     int
}

// Hammer runs the cache-flush hammer loop for each spec in turn: two
// same-bank aggressors make the paper's single-sided pattern, wider
// sets the TRRespass-style many-sided one. It carries the batch
// contract of kvm.HammerBatchGPA: every spec's addresses are
// translated before the first op runs, so a bad address fails the
// call with nothing hammered; after that each op runs exactly as a
// one-spec call would, and a host crash or a translation moved by a
// flip ends the call before the next op. Neither the specs nor their
// aggressor slices are retained.
func (os *OS) Hammer(specs ...HammerSpec) error {
	batch := os.hammerBatch[:0]
	gpas := os.gpaScratch[:0]
	for _, sp := range specs {
		off := len(gpas)
		for _, a := range sp.Aggressors {
			gpa, err := os.GPAOf(a)
			if err != nil {
				return err
			}
			gpas = append(gpas, gpa)
		}
		batch = append(batch, kvm.HammerBatchOp{
			Aggressors: gpas[off:len(gpas):len(gpas)],
			Rounds:     sp.Rounds,
		})
	}
	os.gpaScratch, os.hammerBatch = gpas, batch
	return os.vm.HammerBatchGPA(batch)
}

// HammerScanPairs drives the profile sweep's hammer-then-scan loop:
// each (a, b) pair is hammered for rounds, the guest's memory is
// scanned, and each(i, flips) receives the new flips. The callback
// may hammer again itself (the stability retests); returning stop=true
// ends the sweep early.
func (os *OS) HammerScanPairs(pairs [][2]memdef.GVA, rounds int, each func(i int, flips []Flip) (stop bool, err error)) error {
	for i, p := range pairs {
		if err := os.Hammer(HammerSpec{Aggressors: p[:], Rounds: rounds}); err != nil {
			return err
		}
		stop, err := each(i, os.ScanForFlips())
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// TriggerMultihitDoS attempts the iTLB Multihit denial of service
// against the host from code at gva (Section 4.2.3's erratum). It
// succeeds — crashing the host — only when the CPU is affected and the
// hypervisor runs without the NX-hugepage countermeasure.
func (os *OS) TriggerMultihitDoS(gva memdef.GVA) (bool, error) {
	gpa, err := os.GPAOf(gva)
	if err != nil {
		return false, err
	}
	return os.vm.TriggerMultihitDoS(gpa)
}

// ReleaseHugepage voluntarily unplugs the hugepage containing gva via
// the modified virtio-mem driver. The virtual mapping disappears; the
// physical chunk goes back to the host and never returns to the guest
// pool (auto re-plug is suppressed).
func (os *OS) ReleaseHugepage(gva memdef.GVA) error {
	chunk := memdef.HugeBase(gva)
	gpa, ok := os.vmas[chunk]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadAddress, gva)
	}
	if err := os.drv.UnplugSubBlock(gpa); err != nil {
		return err
	}
	os.unmapHuge(chunk)
	return nil
}

// InflateBalloonPage hands the single 4 KiB page at gva to the host
// through the virtio-balloon device — the per-page release granularity
// that distinguishes the Section 6 balloon variant from virtio-mem's
// 2 MiB sub-blocks. The page's virtual mapping keeps existing but
// faults until deflated.
func (os *OS) InflateBalloonPage(gva memdef.GVA) error {
	gpa, err := os.GPAOf(gva)
	if err != nil {
		return err
	}
	dev := os.vm.Balloon()
	if dev == nil {
		return fmt.Errorf("guest: no balloon device attached")
	}
	return dev.Inflate(gpa)
}

// DeflateBalloonPage takes the page at gva back from the balloon.
func (os *OS) DeflateBalloonPage(gva memdef.GVA) error {
	gpa, err := os.GPAOf(gva)
	if err != nil {
		return err
	}
	dev := os.vm.Balloon()
	if dev == nil {
		return fmt.Errorf("guest: no balloon device attached")
	}
	return dev.Deflate(gpa)
}

// DrainNetBuffers floods the guest's NIC receive queues, consuming
// host unmovable pages (the virtio-net-pci step of the Section 6
// balloon analysis). Returns the pages consumed.
func (os *OS) DrainNetBuffers(maxPages int) int {
	return os.vm.DrainNetBuffers(maxPages)
}

// Groups returns the number of assigned IOMMU groups.
func (os *OS) Groups() int { return os.vm.IOMMUGroups() }

// MapDMA creates a vIOMMU mapping from iova to the guest page at gva.
func (os *OS) MapDMA(group int, iova memdef.IOVA, gva memdef.GVA) error {
	gpa, err := os.GPAOf(gva)
	if err != nil {
		return err
	}
	return os.vm.MapDMA(group, iova, gpa)
}

// Hypercall translates a guest virtual address to a host physical
// address via the paper's added debug hypercall. Experiment-only.
func (os *OS) Hypercall(gva memdef.GVA) (memdef.HPA, error) {
	gpa, err := os.GPAOf(gva)
	if err != nil {
		return 0, err
	}
	return os.vm.HypercallGPAToHPA(gpa)
}

// Flip is a bit flip the guest found by scanning its own memory.
type Flip struct {
	// GVA is the virtual address of the byte containing the flipped
	// bit.
	GVA memdef.GVA
	// Bit is the bit index within the byte.
	Bit uint
	// Direction is the observed direction.
	Direction dram.FlipDirection
}

// EPTEBit returns the bit position within the 8-byte-aligned group
// containing the flip — where it would land in a page-table entry
// (the exploitability filter of Section 4.1).
func (f Flip) EPTEBit() uint { return uint(f.GVA&7)*8 + f.Bit }

// HugepageBase returns the 2 MiB-aligned virtual base of the flip's
// hugepage.
func (f Flip) HugepageBase() memdef.GVA { return memdef.HugeBase(f.GVA) }

// ScanForFlips scans all of the guest's allocated memory for bits that
// changed since the previous scan, charging full scan time. It is
// observationally equivalent to re-reading every allocated page and
// comparing against the fill pattern; see DESIGN.md §3 for why the
// implementation consumes the host flip log instead of iterating
// millions of simulated pages.
func (os *OS) ScanForFlips() []Flip {
	os.chargeFullScan()
	raw, cursor := os.vm.ContentFlipsSince(os.flipCursor)
	os.flipCursor = cursor
	var out []Flip
	for _, f := range raw {
		gva, ok := os.gvaOfGPA(f.GPA)
		if !ok {
			continue // flip landed outside the guest's mapped memory
		}
		out = append(out, Flip{GVA: gva, Bit: f.Bit, Direction: f.Direction})
	}
	return out
}

// MappingChange is a page whose contents no longer match what the
// guest wrote — the magic-value mismatch of Section 4.3.
type MappingChange struct {
	// GVA is the 4 KiB page whose translation changed.
	GVA memdef.GVA
	// Faulted means the page no longer translates at all.
	Faulted bool
}

// ScanForMappingChanges scans all allocated memory for pages whose
// magic value is wrong or unreadable, charging full scan time.
// Observationally equivalent to reading the first word of every
// marked page.
func (os *OS) ScanForMappingChanges() []MappingChange {
	return os.AppendMappingChanges(nil)
}

// AppendMappingChanges is ScanForMappingChanges appending into a
// caller-provided buffer, the allocation-free form for repeated scans
// (the exploit step rescans after every probe). The hypervisor-level
// scan buffer is owned by this OS and overwritten on every call.
func (os *OS) AppendMappingChanges(out []MappingChange) []MappingChange {
	os.chargeFullScan()
	os.scanBuf = os.vm.AppendChangedMappings(os.scanBuf[:0])
	for _, c := range os.scanBuf {
		gva, ok := os.gvaOfGPA(c.GPA)
		if !ok {
			continue
		}
		out = append(out, MappingChange{GVA: gva, Faulted: c.Faulted})
	}
	return out
}

// chargeFullScan advances the virtual clock by the cost of touching
// every allocated page once.
func (os *OS) chargeFullScan() {
	pages := int64(len(os.vmas)) * memdef.PagesPerHuge
	os.vm.Host().Clock.Charge(pages, simtime.PageScan)
}

// Clock exposes the virtual clock (the guest can read time).
func (os *OS) Clock() *simtime.Clock { return os.vm.Host().Clock }
