package kvm

import (
	"fmt"

	"hyperhammer/internal/balloon"
	"hyperhammer/internal/ept"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/memmap"
	"hyperhammer/internal/simtime"
)

// reclaimedFrame marks a backing slot whose page the guest gave up
// through the balloon; the frame belongs to the host until the balloon
// deflates.
const reclaimedFrame = memdef.PFN(^uint64(0) >> 1)

// AttachBalloon adds a virtio-balloon device to the VM, the Section 6
// alternative memory-overcommit path. Balloon and virtio-mem coexist
// on real KVM; here the balloon reclaims single 4 KiB pages while
// virtio-mem works in 2 MiB sub-blocks.
func (vm *VM) AttachBalloon() *balloon.Device {
	if vm.balloon == nil {
		vm.balloon = balloon.NewDevice(vm.cfg.MemSize, (*vmBalloonBackend)(vm))
		vm.balloon.SetMetrics(vm.host.cfg.Metrics)
	}
	return vm.balloon
}

// Balloon returns the VM's balloon device, or nil.
func (vm *VM) Balloon() *balloon.Device { return vm.balloon }

// vmBalloonBackend implements balloon.Backend on the VM.
type vmBalloonBackend VM

// ReclaimPage releases the host backing of one guest page. A THP-
// backed chunk is first split — both the EPT 2 MiB leaf (allocating a
// leaf table, like any hugepage split) and the backing bookkeeping —
// exactly what madvise(DONTNEED) on one page of a THP does on a real
// host. The freed frame returns to the host buddy allocator under the
// VM's backing migration type (movable without VFIO).
func (b *vmBalloonBackend) ReclaimPage(gpa memdef.GPA) error {
	vm := (*VM)(b)
	h := vm.host
	if h.crashed {
		return ErrHostDown
	}
	chunk := memdef.HugeBase(gpa)
	cb := vm.backing[chunk/memdef.HugePageSize]
	if cb == nil {
		return fmt.Errorf("kvm: balloon reclaim of unbacked gpa %#x", gpa)
	}
	idx := int(uint64(gpa-chunk) / memdef.PageSize)
	if cb.huge {
		// Demote the chunk to 4 KiB bookkeeping. If the EPT mapping
		// is still a 2 MiB leaf, split it (non-exec data split: the
		// 4 KiB entries inherit the hugepage's permissions).
		if tr, err := vm.ept.Translate(uint64(chunk)); err == nil && tr.Level == 2 {
			if _, err := vm.ept.SplitHuge(uint64(chunk), tr.Perm); err != nil {
				return fmt.Errorf("kvm: balloon THP split: %w", err)
			}
			vm.splits++
			h.Clock.Advance(simtime.HugepageSplit)
		}
		base := cb.frames[0]
		frames := make([]memdef.PFN, memdef.PagesPerHuge)
		for i := range frames {
			frames[i] = base + memdef.PFN(i)
			h.frames[frames[i]] = memmap.GuestDesc(vm.slot, memdef.GFNOf(chunk)+memdef.GFN(i), false)
		}
		cb.huge = false
		cb.frames = frames
	}
	frame := cb.frames[idx]
	if frame == reclaimedFrame {
		return fmt.Errorf("kvm: page %#x already reclaimed", gpa)
	}
	if _, err := vm.ept.Unmap(uint64(gpa) &^ (memdef.PageSize - 1)); err != nil {
		return fmt.Errorf("kvm: balloon unmap: %w", err)
	}
	cb.frames[idx] = reclaimedFrame
	h.Buddy.FreePage(frame, vm.backingMT())
	h.Clock.Advance(simtime.VirtioUnplug)
	h.met.balloonReclaim.Inc()
	vm.flushChunk(chunk)
	return nil
}

// ProvidePage re-populates one ballooned page with fresh backing.
func (b *vmBalloonBackend) ProvidePage(gpa memdef.GPA) error {
	vm := (*VM)(b)
	h := vm.host
	if h.crashed {
		return ErrHostDown
	}
	chunk := memdef.HugeBase(gpa)
	cb := vm.backing[chunk/memdef.HugePageSize]
	if cb == nil || cb.huge {
		return fmt.Errorf("kvm: balloon provide for non-reclaimed gpa %#x", gpa)
	}
	idx := int(uint64(gpa-chunk) / memdef.PageSize)
	if cb.frames[idx] != reclaimedFrame {
		return fmt.Errorf("kvm: page %#x not in balloon", gpa)
	}
	p, err := h.Buddy.AllocPage(vm.backingMT())
	if err != nil {
		return fmt.Errorf("kvm: balloon provide: %w", err)
	}
	h.Mem.ZeroPage(p)
	pageVA := uint64(gpa) &^ (memdef.PageSize - 1)
	if err := vm.ept.Map4K(pageVA, p, ept.PermRW); err != nil {
		h.Buddy.FreePage(p, vm.backingMT())
		return fmt.Errorf("kvm: balloon remap: %w", err)
	}
	cb.frames[idx] = p
	h.frames[p] = memmap.GuestDesc(vm.slot, memdef.GFNOf(memdef.GPA(pageVA)), false)
	h.met.balloonProvide.Inc()
	vm.flushChunk(chunk)
	return nil
}

// DrainNetBuffers models the virtio-net-pci trick of the Section 6
// balloon analysis: the guest floods its NIC's receive queues, forcing
// QEMU/the host kernel to allocate unmovable buffer pages until the
// unmovable free lists run dry and further kernel allocations must
// steal movable blocks. Returns the number of pages consumed; they
// remain held by the (simulated) NIC until the VM is destroyed.
func (vm *VM) DrainNetBuffers(maxPages int) int {
	h := vm.host
	consumed := 0
	for consumed < maxPages && h.Buddy.NoisePages(memdef.MigrateUnmovable) > 0 {
		p, err := h.Buddy.AllocPage(memdef.MigrateUnmovable)
		if err != nil {
			break
		}
		vm.netBuffers = append(vm.netBuffers, p)
		consumed++
	}
	return consumed
}
