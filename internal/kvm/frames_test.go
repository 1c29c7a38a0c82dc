package kvm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hyperhammer/internal/ept"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/memmap"
	"hyperhammer/internal/virtio"
)

// listing is what one independent record says a frame is.
type listing struct {
	d      memmap.Desc
	record string
}

// checkFrames makes one linear, read-only pass over the host's memmap
// and holds it to every independent record of who holds a frame: the
// buddy free lists (order, migratetype, slot) and PCP caches, the
// kernel page list, each structure's TableCountByLevel, each VM's
// chunk table, net buffers and virtio-mem plugged sub-blocks, and the
// frames the caller holds outside the host. Every frame is counted
// exactly once — free, PCP, kernel, table, guest, or other allocated —
// and the error names each frame and record that disagree.
func checkFrames(h *Host, held ...memdef.PFN) error {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	listed := make(map[memdef.PFN]listing)
	list := func(p memdef.PFN, d memmap.Desc, record string) {
		if prev, ok := listed[p]; ok {
			fail("frame %d: held by both %s and %s", p, prev.record, record)
		}
		listed[p] = listing{d, record}
	}
	pcp := 0
	for mt := memdef.MigrateType(0); mt < memdef.NumMigrateTypes; mt++ {
		for o := 0; o < memdef.MaxOrder; o++ {
			for i, p := range h.Buddy.FreeList(mt, o) {
				list(p, memmap.FreeDesc(o, mt, i), fmt.Sprintf("the %v order-%d free list", mt, o))
			}
		}
		for _, p := range h.Buddy.PCP(mt) {
			list(p, memmap.PCPDesc(mt), fmt.Sprintf("the %v pageset", mt))
		}
		pcp += len(h.Buddy.PCP(mt))
	}
	for _, p := range h.kernelPages {
		list(p, memmap.KernelDesc, "the kernel page list")
	}
	for _, p := range held {
		list(p, 0, "the caller")
	}
	for _, vm := range h.vms {
		if vm == nil {
			continue
		}
		var plugged []memdef.GPA
		for i, cb := range vm.backing {
			if cb == nil {
				continue
			}
			chunk := memdef.GPA(i) * memdef.HugePageSize
			plugged = append(plugged, chunk)
			record := fmt.Sprintf("vm %d's chunk at %#x", vm.id, chunk)
			if cb.huge {
				list(cb.frames[0], memmap.GuestDesc(vm.slot, memdef.GFNOf(chunk), true), record)
				continue
			}
			for j, p := range cb.frames {
				if p != reclaimedFrame {
					list(p, memmap.GuestDesc(vm.slot, memdef.GFNOf(chunk)+memdef.GFN(j), false), record)
				}
			}
		}
		for _, p := range vm.netBuffers {
			list(p, 0, fmt.Sprintf("vm %d's net buffers", vm.id))
		}
		dev := vm.memDev
		if sbs := dev.PluggedSubBlocks(); dev.PluggedSize() != uint64(len(sbs))*virtio.SubBlockSize || !slices.Equal(sbs, plugged) {
			fail("vm %d: virtio-mem plugs %d bytes in sub-blocks %#x, chunk table backs %#x",
				vm.id, dev.PluggedSize(), sbs, plugged)
		}
	}

	// The pass: each block is counted once at its head, and its tail
	// frames must carry the zero descriptor and appear in no record.
	type structure struct{ slot, s int }
	tables := make(map[structure]ept.LevelCounts)
	var free, cached uint64
	for p := memdef.PFN(0); p < memdef.PFN(len(h.frames)); {
		d := h.frames[p]
		l, ok := listed[p]
		switch {
		case d.Kind() == memmap.Table:
			k := structure{d.VM(), d.Structure()}
			c := tables[k]
			c[d.Level()]++
			tables[k] = c
			if ok {
				fail("frame %d: held by %s, but the memmap books a level-%d table of structure %d of vm slot %d",
					p, l.record, d.Level(), d.Structure(), d.VM())
			}
		case !ok && d.Kind() == memmap.Allocated:
			fail("frame %d: allocated, but no record holds it", p)
		case !ok:
			fail("frame %d: the memmap says %#x (kind %d), but no record lists it", p, d, d.Kind())
		case d != l.d:
			fail("frame %d: %s says %#x, the memmap %#x", p, l.record, l.d, d)
		}
		span := memdef.PFN(1)
		switch {
		case d.Kind() == memmap.FreeHead:
			span = 1 << d.Order()
			free += uint64(span)
		case d.Kind() == memmap.PCP:
			cached++
		case d.Kind() == memmap.Guest && d.Huge():
			span = memdef.PagesPerHuge
		}
		for q := p + 1; q < p+span; q++ {
			if h.frames[q] != 0 {
				fail("frame %d: inside the block at %d, but the memmap says %#x", q, p, h.frames[q])
			}
			if l, ok := listed[q]; ok {
				fail("frame %d: inside the block at %d, but held by %s", q, p, l.record)
			}
		}
		p += span
	}
	if free+cached != h.Buddy.FreePages() || cached != uint64(pcp) {
		fail("memmap: %d free and %d PCP pages, buddy counts %d free with %d PCP",
			free, cached, h.Buddy.FreePages(), pcp)
	}
	for _, vm := range h.vms {
		if vm == nil {
			continue
		}
		counts := []ept.LevelCounts{vm.ept.TableCountByLevel()}
		for _, g := range vm.groups {
			counts = append(counts, g.TableCountByLevel())
		}
		for s, want := range counts {
			k := structure{vm.slot, s}
			if got := tables[k]; got != want {
				fail("vm %d structure %d: the memmap books tables %v by level, TableCountByLevel says %v",
					vm.id, s, got, want)
			}
			delete(tables, k)
		}
	}
	for k, c := range tables {
		fail("memmap books tables %v by level to structure %d of vm slot %d, which does not exist", c, k.s, k.slot)
	}
	if len(errs) > 0 {
		if len(errs) > 8 {
			errs = append(errs[:8], fmt.Sprintf("and %d more", len(errs)-8))
		}
		return errors.New(strings.Join(errs, "\n"))
	}
	return nil
}

// eptLeaves returns the frames of the VM's leaf EPT tables in
// ascending order, read from the memmap.
func eptLeaves(vm *VM) []memdef.PFN {
	var out []memdef.PFN
	for p := range vm.host.frames {
		if vm.IsEPTLeaf(memdef.PFN(p)) {
			out = append(out, memdef.PFN(p))
		}
	}
	return out
}

// mustCheckFrames fails the test when the frame accounting disagrees.
func mustCheckFrames(t *testing.T, h *Host, step string, held ...memdef.PFN) {
	t.Helper()
	if err := checkFrames(h, held...); err != nil {
		t.Fatalf("frame accounting after %s:\n%v", step, err)
	}
}

// TestFrameAccountingLifecycle runs one host through every step that
// moves frames between owners, checking the accounting after each:
// boot and create (in the helpers), hugepage splits, DMA exhaustion,
// unplug, balloon reclaim and provide, net-buffer drain, churn,
// destroy, and a respawn into the freed VM slot.
func TestFrameAccountingLifecycle(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newTestVM(t, h, 64*memdef.MiB)
	for gpa := memdef.GPA(0); gpa < 16*memdef.MiB; gpa += memdef.HugePageSize {
		if _, err := vm.ExecGPA(gpa); err != nil {
			t.Fatal(err)
		}
	}
	mustCheckFrames(t, h, "split")
	// Each 2 MiB IOVA window costs an IOPT leaf: map until the small
	// unmovable blocks are gone, the spray's goal.
	for i := 0; h.NoisePages() > 0; i++ {
		if err := vm.MapDMA(0, memdef.IOVA(i)*memdef.HugePageSize, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustCheckFrames(t, h, "DMA exhaustion")
	drv := virtio.NewGuestDriver(vm.MemDevice())
	drv.SuppressAutoPlug = true
	if err := drv.UnplugSubBlock(40 * memdef.MiB); err != nil {
		t.Fatal(err)
	}
	mustCheckFrames(t, h, "unplug")

	bvm := newBalloonVM(t, h, 32*memdef.MiB)
	for _, gpa := range []memdef.GPA{10 * memdef.MiB, 10*memdef.MiB + 3*memdef.PageSize} {
		if err := bvm.Balloon().Inflate(gpa); err != nil {
			t.Fatal(err)
		}
	}
	mustCheckFrames(t, h, "balloon reclaim")
	if err := bvm.Balloon().Deflate(10 * memdef.MiB); err != nil {
		t.Fatal(err)
	}
	mustCheckFrames(t, h, "balloon provide")
	bvm.DrainNetBuffers(64)
	mustCheckFrames(t, h, "net-buffer drain")
	h.BackgroundChurn(400)
	mustCheckFrames(t, h, "churn")

	vm.Destroy()
	mustCheckFrames(t, h, "destroy")
	newTestVM(t, h, 32*memdef.MiB)
	bvm.Destroy()
	mustCheckFrames(t, h, "respawn and destroy")
}

// TestFrameAccountingCatchesLeak leaks one page the allocator handed
// out but no record holds; the check must name it.
func TestFrameAccountingCatchesLeak(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	newTestVM(t, h, 16*memdef.MiB)
	p, err := h.Buddy.AllocPage(memdef.MigrateUnmovable)
	if err != nil {
		t.Fatal(err)
	}
	err = checkFrames(h)
	want := fmt.Sprintf("frame %d: allocated, but no record holds it", p)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("leaked frame %d: check says %v, want %q", p, err, want)
	}
	t.Logf("the check reports:\n%v", err)
	if checkFrames(h, p) != nil {
		t.Error("the check still fails once the caller accounts for the page")
	}
}

// TestFrameAccountingCatchesDoubleBooking books a live EPT leaf table
// a second time, as the backing of a guest chunk — the state a
// successful attack ends in — and the check must name the frame and
// the record that disagrees.
func TestFrameAccountingCatchesDoubleBooking(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newTestVM(t, h, 16*memdef.MiB)
	if _, err := vm.ExecGPA(0); err != nil {
		t.Fatal(err)
	}
	leaf := eptLeaves(vm)[0]
	vm.backing[3].frames[0] = leaf
	err := checkFrames(h)
	want := fmt.Sprintf("frame %d: held by vm %d's chunk at 0x600000, but the memmap books a level-1 table", leaf, vm.ID())
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("double-booked frame %d: check says %v, want %q", leaf, err, want)
	}
	t.Logf("the check reports:\n%v", err)
}
