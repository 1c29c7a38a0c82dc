package guest

import (
	"fmt"

	"hyperhammer/internal/ept"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
)

// This file gives the guest real page tables: the GVA-to-GPA mapping
// is a 4-level structure whose table pages live in the guest's own
// physical memory (inside the kernel reserve) and are read and written
// through ordinary guest memory accesses. THP-backed allocations are
// 2 MiB leaf entries, exactly the structure a Linux guest with THP
// builds — and the reason the low 21 virtual address bits survive to
// guest physical addresses.

// guestMemory adapts the VM's guest-physical address space to the
// ept.Memory interface so the generic table walker can operate on
// guest page tables. Addresses are GPAs; "frames" are guest frames.
//
// Guest page tables live in the kernel reserve, which is always
// plugged, so accesses cannot fault; a fault here is the guest kernel
// dereferencing its own corrupted state, which panics the (simulated)
// guest kernel just like the real one.
type guestMemory struct {
	vm *kvm.VM
}

func (g guestMemory) Word(a memdef.HPA) uint64 {
	v, err := g.vm.ReadGPA64(memdef.GPA(a))
	if err != nil {
		panic(fmt.Sprintf("guest: kernel page-table read at gpa %#x: %v", a, err))
	}
	return v
}

func (g guestMemory) SetWord(a memdef.HPA, v uint64) {
	if err := g.vm.WriteGPA64(memdef.GPA(a), v); err != nil {
		panic(fmt.Sprintf("guest: kernel page-table write at gpa %#x: %v", a, err))
	}
}

func (g guestMemory) ZeroPage(p memdef.PFN) {
	zero := func(int) uint64 { return 0 }
	if err := g.vm.FillPagesGPA(memdef.GPA(p)<<memdef.PageShift, 1, zero); err != nil {
		panic(fmt.Sprintf("guest: zeroing kernel page %d: %v", p, err))
	}
}

func (g guestMemory) PageWord(p memdef.PFN, idx int) uint64 {
	return g.Word(memdef.HPA(p)<<memdef.PageShift + memdef.HPA(idx*8))
}

func (g guestMemory) SetPageWord(p memdef.PFN, idx int, v uint64) {
	g.SetWord(memdef.HPA(p)<<memdef.PageShift+memdef.HPA(idx*8), v)
}

// FillStride writes the 512 words one at a time, as SplitHuge once
// did: guest page tables are never split, so no faster form is needed.
func (g guestMemory) FillStride(p memdef.PFN, w0 uint64) {
	for i := 0; i < memdef.EntriesPerTable; i++ {
		g.SetPageWord(p, i, w0+uint64(i)<<memdef.PageShift)
	}
}

func (g guestMemory) Frames() int {
	return int(g.vm.Config().MemSize / memdef.PageSize)
}

// kernelPageAlloc hands out 4 KiB guest frames from the kernel
// reserve for page-table pages, the way a kernel feeds its own paging
// structures from its low-memory allocator.
type kernelPageAlloc struct {
	next memdef.GPA
	end  memdef.GPA
}

func newKernelPageAlloc() *kernelPageAlloc {
	return &kernelPageAlloc{
		// The first pages of the reserve stand in for the kernel
		// image; paging structures start above them.
		next: 4 * memdef.MiB,
		end:  KernelReserve,
	}
}

func (a *kernelPageAlloc) AllocTable(int) (memdef.PFN, error) {
	if a.next >= a.end {
		return 0, fmt.Errorf("guest: kernel reserve exhausted by page tables")
	}
	p := memdef.PFN(a.next >> memdef.PageShift)
	a.next += memdef.PageSize
	return p, nil
}

// initPageTables builds the guest's root paging structure.
func (os *OS) initPageTables() {
	pt, err := ept.New(guestMemory{os.vm}, newKernelPageAlloc())
	if err != nil {
		panic(fmt.Sprintf("guest: building page tables: %v", err))
	}
	os.pt = pt
}

// mapHuge installs a 2 MiB THP leaf gva -> gpa in the guest's page
// tables and the OS's translation cache.
func (os *OS) mapHuge(gva memdef.GVA, gpa memdef.GPA) {
	if err := os.pt.Map2M(uint64(gva), memdef.PFN(gpa>>memdef.PageShift), ept.PermRWX); err != nil {
		panic(fmt.Sprintf("guest: mapping %#x -> %#x: %v", gva, gpa, err))
	}
	i := int(uint64(gva-gvaBase) >> memdef.HugePageShift)
	if i >= len(os.vmas) {
		os.vmas = append(os.vmas, make([]memdef.GPA, i+1-len(os.vmas))...)
	}
	os.vmas[i] = gpa
	os.rmap[gpa>>memdef.HugePageShift] = gva
	os.mapped++
	os.led.Fold3(ledGuestMap, uint64(gva), uint64(gpa))
}

// unmapHuge removes a 2 MiB mapping from the tables and caches.
func (os *OS) unmapHuge(gva memdef.GVA) {
	if _, err := os.pt.Unmap(uint64(gva)); err != nil {
		panic(fmt.Sprintf("guest: unmapping %#x: %v", gva, err))
	}
	i := uint64(gva-gvaBase) >> memdef.HugePageShift
	gpa := os.vmas[i]
	os.vmas[i] = 0
	os.rmap[gpa>>memdef.HugePageShift] = 0
	os.mapped--
	os.led.Fold3(ledGuestUnmap, uint64(gva), uint64(gpa))
}

// walkGVA translates through the real page tables, bypassing the
// cache. Exposed for consistency checking; GPAOf uses the cache (the
// guest's own TLB analogue) on the hot path.
func (os *OS) walkGVA(gva memdef.GVA) (memdef.GPA, error) {
	tr, err := os.pt.Translate(uint64(gva))
	if err != nil {
		return 0, fmt.Errorf("%w: %#x", ErrBadAddress, gva)
	}
	return memdef.GPA(tr.HPA), nil
}

// PageTablePages returns how many guest frames the guest's own paging
// structures occupy.
func (os *OS) PageTablePages() int { return os.pt.NumTables() }
