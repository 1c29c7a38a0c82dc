package kvm

import (
	"errors"
	"testing"

	"hyperhammer/internal/memdef"
	"hyperhammer/internal/memmap"
)

// newBalloonVM builds a VM without VFIO (the Section 6 balloon
// scenario): its memory is MIGRATE_MOVABLE, not pinned.
func newBalloonVM(t *testing.T, h *Host, size uint64) *VM {
	t.Helper()
	vm, err := h.CreateVM(VMConfig{MemSize: size})
	if err != nil {
		t.Fatal(err)
	}
	vm.AttachBalloon()
	return vm
}

func TestBalloonVMBackingIsMovable(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	before := h.Buddy.NoisePages(memdef.MigrateMovable)
	_ = before
	vm := newBalloonVM(t, h, 32*memdef.MiB)
	if vm.backingMT() != memdef.MigrateMovable {
		t.Fatal("balloon VM backing not movable")
	}
	vfioVM := newTestVM(t, h, 32*memdef.MiB)
	if vfioVM.backingMT() != memdef.MigrateUnmovable {
		t.Fatal("VFIO VM backing not pinned unmovable")
	}
}

func TestBalloonReclaimAndProvide(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newBalloonVM(t, h, 32*memdef.MiB)
	dev := vm.Balloon()

	target := memdef.GPA(10 * memdef.MiB)
	if err := vm.WriteGPA64(target, 0xAB); err != nil {
		t.Fatal(err)
	}
	splitsBefore := vm.Splits()
	freeBefore := h.Buddy.FreePages()
	if err := dev.Inflate(target); err != nil {
		t.Fatal(err)
	}
	mustCheckFrames(t, h, "balloon reclaim")
	// The THP chunk was split (one new leaf table allocated, one
	// backing frame released): net one page freed minus one table.
	if vm.Splits() != splitsBefore+1 {
		t.Errorf("splits = %d, want +1 for the THP data split", vm.Splits())
	}
	if h.Buddy.FreePages() != freeBefore {
		// one frame freed, one leaf table allocated
		t.Errorf("free pages %d -> %d, want unchanged net", freeBefore, h.Buddy.FreePages())
	}
	// The ballooned page faults; its neighbours still work and kept
	// their contents.
	if _, err := vm.ReadGPA64(target); !errors.Is(err, ErrFault) {
		t.Errorf("ballooned page read: %v", err)
	}
	if err := vm.WriteGPA64(target+memdef.PageSize, 7); err != nil {
		t.Errorf("neighbour write: %v", err)
	}
	// Double inflate refused.
	if err := dev.Inflate(target); err == nil {
		t.Error("double inflate accepted")
	}
	// Deflate restores a (zeroed) page.
	if err := dev.Deflate(target); err != nil {
		t.Fatal(err)
	}
	mustCheckFrames(t, h, "balloon provide")
	v, err := vm.ReadGPA64(target)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("deflated page = %#x, want zeroed", v)
	}
}

// The balloon's key property for the Section 6 analysis: a reclaimed
// page lands on the MOVABLE free lists at order 0 — immediately small,
// but on the wrong side of the migratetype wall from EPT allocations.
func TestBalloonReleaseIsMovableOrder0(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newBalloonVM(t, h, 32*memdef.MiB)
	target := memdef.GPA(20 * memdef.MiB)
	hpa, err := vm.HypercallGPAToHPA(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Balloon().Inflate(target); err != nil {
		t.Fatal(err)
	}
	// Cached in a per-CPU list (order-0 by definition), or heading an
	// order-0 free block: either way the memmap says so and which list.
	d := h.frames[memdef.PFNOf(hpa)]
	if d.Kind() != memmap.PCP && d.Kind() != memmap.FreeHead {
		t.Fatalf("reclaimed frame is neither a free-block head nor PCP-cached: %#x", d)
	}
	if d.MT() != memdef.MigrateMovable {
		t.Errorf("reclaimed frame migratetype = %v", d.MT())
	}
	if d.Kind() == memmap.FreeHead && d.Order() != 0 {
		t.Errorf("reclaimed frame heads an order-%d block", d.Order())
	}
}

func TestBalloonExecAfterDataSplit(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newBalloonVM(t, h, 32*memdef.MiB)
	chunk := memdef.GPA(8 * memdef.MiB)
	if err := vm.Balloon().Inflate(chunk + 5*memdef.PageSize); err != nil {
		t.Fatal(err)
	}
	// The chunk is now 4 KiB-mapped and non-executable. Executing in
	// it must succeed via a per-entry exec grant, not a split.
	splits := vm.Splits()
	didSplit, err := vm.ExecGPA(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if didSplit || vm.Splits() != splits {
		t.Error("exec on data-split chunk caused another split")
	}
	// And again: idempotent.
	if _, err := vm.ExecGPA(chunk); err != nil {
		t.Fatal(err)
	}
}

func TestDrainNetBuffers(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newBalloonVM(t, h, 32*memdef.MiB)
	noise := h.NoisePages()
	if noise == 0 {
		t.Fatal("no boot noise to drain")
	}
	consumed := vm.DrainNetBuffers(1 << 20)
	mustCheckFrames(t, h, "net-buffer drain")
	if consumed < noise/2 {
		t.Errorf("drained %d of %d noise pages", consumed, noise)
	}
	if got := h.NoisePages(); got != 0 {
		t.Errorf("noise after drain = %d", got)
	}
	free := h.Buddy.FreePages()
	vm.Destroy()
	if h.Buddy.FreePages() <= free {
		t.Error("destroy did not return net buffers")
	}
}
