package kvm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/ept"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/virtio"
)

// testGeometry is a small (256 MiB) machine so tests stay fast; the
// bank function reuses the i3's low-bit structure.
func testGeometry() *dram.Geometry {
	return dram.MustGeometry(dram.Geometry{
		Name: "test-256M",
		Size: 256 * memdef.MiB,
		BankMasks: []uint64{
			1<<17 | 1<<21,
			1<<16 | 1<<20,
			1<<15 | 1<<19,
			1<<14 | 1<<18,
			1<<6 | 1<<13,
		},
	})
}

func testHostConfig() Config {
	return Config{
		Geometry:       testGeometry(),
		Fault:          dram.S1FaultModel(7),
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 500,
		Seed:           7,
	}
}

func newTestHost(t *testing.T, cfg Config) *Host {
	t.Helper()
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustCheckFrames(t, h, "boot")
	return h
}

func newTestVM(t *testing.T, h *Host, memSize uint64) *VM {
	t.Helper()
	vm, err := h.CreateVM(VMConfig{MemSize: memSize, VFIOGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustCheckFrames(t, h, "create")
	return vm
}

func TestHostBootNoise(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	noise := h.NoisePages()
	if noise < 500 || noise > 1500 {
		t.Errorf("boot noise = %d, want near 500", noise)
	}
}

func TestVMMemoryReadWrite(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newTestVM(t, h, 32*memdef.MiB)
	if v, err := vm.ReadGPA64(0x100000); err != nil || v != 0 {
		t.Fatalf("fresh memory read = %#x, %v", v, err)
	}
	if err := vm.WriteGPA64(0x100000, 0xFEED); err != nil {
		t.Fatal(err)
	}
	if v, _ := vm.ReadGPA64(0x100000); v != 0xFEED {
		t.Errorf("read back %#x", v)
	}
	if _, err := vm.ReadGPA64(33 * memdef.MiB); !errors.Is(err, ErrFault) {
		t.Errorf("out-of-VM read: %v", err)
	}
}

// With host THP, a guest physical address and its backing host
// physical address agree on the low 21 bits — the property profiling
// relies on (Section 4.1).
func TestTHPPreservesLow21Bits(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newTestVM(t, h, 64*memdef.MiB)
	for gpa := memdef.GPA(0); gpa < 64*memdef.MiB; gpa += 3*memdef.MiB + 0x3008 {
		hpa, err := vm.HypercallGPAToHPA(gpa)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(hpa)&(memdef.HugePageSize-1) != uint64(gpa)&(memdef.HugePageSize-1) {
			t.Fatalf("gpa %#x -> hpa %#x: low 21 bits differ", gpa, hpa)
		}
	}
}

func TestTHPOffBreaksLow21Bits(t *testing.T) {
	cfg := testHostConfig()
	cfg.THP = false
	h := newTestHost(t, cfg)
	vm := newTestVM(t, h, 8*memdef.MiB)
	mismatches := 0
	for gpa := memdef.GPA(0); gpa < 8*memdef.MiB; gpa += memdef.PageSize * 7 {
		hpa, err := vm.HypercallGPAToHPA(gpa)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(hpa)&(memdef.HugePageSize-1) != uint64(gpa)&(memdef.HugePageSize-1) {
			mismatches++
		}
	}
	if mismatches == 0 {
		t.Error("THP-off backing still preserved all low-21-bit mappings")
	}
}

func TestExecTriggersMultihitSplit(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newTestVM(t, h, 16*memdef.MiB)
	before := vm.EPTPageCount()
	split, err := vm.ExecGPA(4*memdef.MiB + 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if !split {
		t.Fatal("first exec did not split")
	}
	if vm.Splits() != 1 {
		t.Errorf("Splits = %d", vm.Splits())
	}
	if got := vm.EPTPageCount() - before; got != 1 {
		t.Errorf("split allocated %d EPT pages, want 1", got)
	}
	mustCheckFrames(t, h, "split")
	// Second exec in the same chunk: already executable, no split.
	split, err = vm.ExecGPA(4*memdef.MiB + 0x5000)
	if err != nil || split {
		t.Errorf("second exec: split=%v err=%v", split, err)
	}
	// Memory contents survive the split.
	if err := vm.WriteGPA64(4*memdef.MiB+0x2000, 77); err != nil {
		t.Fatal(err)
	}
	if v, _ := vm.ReadGPA64(4*memdef.MiB + 0x2000); v != 77 {
		t.Errorf("post-split read = %d", v)
	}
}

func TestExecWithoutMitigationDoesNotSplit(t *testing.T) {
	cfg := testHostConfig()
	cfg.NXHugepages = false
	h := newTestHost(t, cfg)
	vm := newTestVM(t, h, 8*memdef.MiB)
	tables := vm.EPTPageCount()
	split, err := vm.ExecGPA(2 * memdef.MiB)
	if err != nil || split {
		t.Errorf("exec on RWX hugepage: split=%v err=%v", split, err)
	}
	if vm.EPTPageCount() != tables || vm.Splits() != 0 {
		t.Errorf("unexpected split activity")
	}
}

func TestVoluntaryUnplugReleasesOrder9Unmovable(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newTestVM(t, h, 32*memdef.MiB)
	drv := virtio.NewGuestDriver(vm.MemDevice())
	drv.SuppressAutoPlug = true

	target := memdef.GPA(10 * memdef.MiB)
	hpa, _ := vm.HypercallGPAToHPA(target)
	wantBase := memdef.PFNOf(hpa) &^ (memdef.PagesPerHuge - 1)

	before9 := len(h.Buddy.FreeList(memdef.MigrateUnmovable, memdef.HugeOrder))
	if err := drv.UnplugSubBlock(target); err != nil {
		t.Fatal(err)
	}
	mustCheckFrames(t, h, "unplug")
	log := h.ReleasedBlockLog()
	if len(log) != 1 || log[0] != wantBase {
		t.Errorf("released log = %v, want [%d]", log, wantBase)
	}
	after9 := len(h.Buddy.FreeList(memdef.MigrateUnmovable, memdef.HugeOrder))
	if after9 != before9+1 {
		t.Errorf("order-9 unmovable blocks %d -> %d, want +1", before9, after9)
	}
	// The guest can no longer touch the released range.
	if _, err := vm.ReadGPA64(target); !errors.Is(err, ErrFault) {
		t.Errorf("read of unplugged memory: %v", err)
	}
}

func TestHammerProducesAttributableFlips(t *testing.T) {
	cfg := testHostConfig()
	// Dense, always-stable cells so the test is deterministic.
	cfg.Fault = dram.FaultModelConfig{
		Seed: 3, CellsPerRow: 2.0,
		ThresholdMin: 50_000, ThresholdMax: 100_000,
		StableFraction: 1.0, FlakyP: 1.0,
	}
	h := newTestHost(t, cfg)
	vm := newTestVM(t, h, 64*memdef.MiB)
	// Fill all guest memory with ones so both flip directions apply.
	ones := func(int) uint64 { return ^uint64(0) }
	if err := vm.FillPagesGPA(0, int(64*memdef.MiB/memdef.PageSize), ones); err != nil {
		t.Fatal(err)
	}
	cursor := 0
	var flips []GuestFlip
	// Hammer pairs of consecutive-row same-bank addresses across the
	// guest space until something flips. THP keeps the low 21 bits, so
	// same-bank offsets picked once hold for every chunk.
	geo := h.DRAM.Geo
	offA := 6 * geo.RowSpan()
	offB := 7 * geo.RowSpan()
	for ; offB < 8*geo.RowSpan(); offB += 64 {
		if geo.Bank(memdef.HPA(offA)) == geo.Bank(memdef.HPA(offB)) {
			break
		}
	}
	for gpa := memdef.GPA(0); gpa < 60*memdef.MiB && len(flips) == 0; gpa += 2 * memdef.MiB {
		a := gpa + memdef.GPA(offA)
		b := gpa + memdef.GPA(offB)
		if err := vm.HammerBatchGPA([]HammerBatchOp{{Aggressors: []memdef.GPA{a, b}, Rounds: 250_000}}); err != nil {
			t.Fatal(err)
		}
		flips, cursor = vm.ContentFlipsSince(cursor)
	}
	if len(flips) == 0 {
		t.Fatal("no flips despite dense fault model")
	}
	// Every reported flip must be observable at its guest address:
	// the word there differs from the fill pattern in exactly the
	// direction reported.
	for _, f := range flips {
		w, err := vm.ReadGPA64(f.GPA &^ 7)
		if err != nil {
			t.Fatalf("reading flip at %#x: %v", f.GPA, err)
		}
		bitPos := (uint(f.GPA) & 7 * 8) + f.Bit
		bit := (w >> bitPos) & 1
		if f.Direction == dram.FlipOneToZero && bit != 0 {
			t.Errorf("flip at %#x reported 1->0 but bit is %d", f.GPA, bit)
		}
	}
	if h.Clock.Now() == 0 {
		t.Error("hammering charged no virtual time")
	}
}

// A split leaf stays in phys's stride form until something writes it,
// and the rescan accepts it whole only while it maps the chunk's own
// frames. A PFN bit flipped in any one entry, the way a Rowhammer flip
// would, reports exactly that page — entry 0 and entry 511, the two
// the intact check reads, included — and a stride leaf over another
// base reports every page.
func TestChangedMappingsDetectsEPTECorruption(t *testing.T) {
	const chunk = 6 * memdef.MiB
	splitVM := func() (*Host, *VM, memdef.PFN) {
		h := newTestHost(t, testHostConfig())
		vm := newTestVM(t, h, 16*memdef.MiB)
		if n := len(vm.ChangedMappings()); n != 0 {
			t.Fatalf("fresh VM reports %d changed mappings", n)
		}
		if _, err := vm.ExecGPA(chunk); err != nil {
			t.Fatal(err)
		}
		leaves := eptLeaves(vm)
		if len(leaves) != 1 {
			t.Fatalf("leaf tables = %d", len(leaves))
		}
		if _, ok := h.Mem.PageStride(leaves[0]); !ok {
			t.Fatal("split leaf not in stride form")
		}
		if n := len(vm.ChangedMappings()); n != 0 {
			t.Fatalf("intact split leaf: %d changed mappings", n)
		}
		return h, vm, leaves[0]
	}
	for _, i := range []int{0, 17, 255, 511} {
		h, vm, leaf := splitVM()
		// Flip PFN bit 14 of entry i (byte 1, bit 6) in whichever
		// direction the current content allows, as a unidirectional
		// Rowhammer cell would.
		entryAddr := leaf.HPAOf() + memdef.HPA(i*8)
		cur := (h.Mem.Word(entryAddr) >> 14) & 1
		if !h.Mem.FlipBit(entryAddr+1, 6, cur == 1) {
			t.Fatal("PFN flip failed")
		}
		want := []MappingChange{{GPA: chunk + memdef.GPA(i)*memdef.PageSize}}
		if got := vm.AppendChangedMappings(nil); !slices.Equal(got, want) {
			t.Errorf("entry %d flipped: changes %+v, want %+v", i, got, want)
		}
	}

	h, vm, leaf := splitVM()
	base := vm.backing[chunk/memdef.HugePageSize].frames[0]
	h.Mem.FillStride(leaf, uint64(ept.NewEntry(base+1, ept.PermRWX, false)))
	vm.flushTLB()
	if got := vm.AppendChangedMappings(nil); len(got) != memdef.PagesPerHuge {
		t.Errorf("stride leaf one frame off: %d changed mappings, want %d", len(got), memdef.PagesPerHuge)
	}
}

// The end state of the attack: an EPTE redirected onto a leaf EPT
// table lets the guest rewrite its own translations and reach
// arbitrary host memory.
func TestStolenEPTPageGrantsArbitraryAccess(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newTestVM(t, h, 16*memdef.MiB)
	// Split two chunks: chunk A (the probe window) and chunk B.
	if _, err := vm.ExecGPA(2 * memdef.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.ExecGPA(4 * memdef.MiB); err != nil {
		t.Fatal(err)
	}
	leaves := eptLeaves(vm)
	if len(leaves) != 2 {
		t.Fatalf("leaf tables = %d", len(leaves))
	}
	// Identify which leaf serves chunk A by checking its first entry.
	hpaA, _ := vm.HypercallGPAToHPA(2 * memdef.MiB)
	var leafA, leafB memdef.PFN
	if ept.Entry(h.Mem.PageWord(leaves[0], 0)).PFN() == memdef.PFNOf(hpaA) {
		leafA, leafB = leaves[0], leaves[1]
	} else {
		leafA, leafB = leaves[1], leaves[0]
	}
	_ = leafA
	// Simulate the successful flip: page 5 of chunk A now maps leafB.
	probeGPA := memdef.GPA(2*memdef.MiB + 5*memdef.PageSize)
	tr, err := vm.ept.Translate(uint64(probeGPA))
	if err != nil {
		t.Fatal(err)
	}
	h.Mem.SetWord(tr.EntryAddr, uint64(ept.NewEntry(leafB, ept.PermRW, false)))
	vm.flushTLB()

	// The guest now reads EPT entries through its own address space.
	w, err := vm.ReadGPA64(probeGPA)
	if err != nil {
		t.Fatal(err)
	}
	if !ept.Entry(w).Present() {
		t.Fatal("stolen page does not look like an EPT page")
	}
	// Rewrite entry 9 of chunk B's leaf to point at a host-owned
	// secret page outside the VM.
	secret := memdef.PFN(h.Mem.Frames() - 10)
	h.Mem.FillWord(secret, 0x5EC12E7)
	if err := vm.WriteGPA64(probeGPA+9*8, uint64(ept.NewEntry(secret, ept.PermRW, false))); err != nil {
		t.Fatal(err)
	}
	// Chunk B's page 9 now maps the secret host page: VM escape.
	escapeGPA := memdef.GPA(4*memdef.MiB + 9*memdef.PageSize)
	v, err := vm.ReadGPA64(escapeGPA)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x5EC12E7 {
		t.Errorf("escape read = %#x, want secret", v)
	}
	// And writes reach host memory too.
	if err := vm.WriteGPA64(escapeGPA+8, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if got := h.Mem.Word(secret.HPAOf() + 8); got != 0xDEAD {
		t.Errorf("host page word = %#x after guest write", got)
	}
}

func TestQuarantineBlocksVoluntaryUnplug(t *testing.T) {
	cfg := testHostConfig()
	cfg.Quarantine = func(delta int64, current, requested uint64) error {
		have := int64(requested) - int64(current)
		if delta*have < 0 || abs(delta) > abs(have) {
			return errors.New("suspicious resize pattern")
		}
		return nil
	}
	h := newTestHost(t, cfg)
	vm := newTestVM(t, h, 16*memdef.MiB)
	drv := virtio.NewGuestDriver(vm.MemDevice())
	if err := drv.UnplugSubBlock(4 * memdef.MiB); !errors.Is(err, virtio.ErrNACK) {
		t.Errorf("quarantined unplug: %v", err)
	}
	if len(h.ReleasedBlockLog()) != 0 {
		t.Error("quarantine leaked a release")
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestDestroyReturnsAllMemory(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	before := h.Buddy.FreePages()
	vm := newTestVM(t, h, 32*memdef.MiB)
	for i := 0; i < 4; i++ {
		if _, err := vm.ExecGPA(memdef.GPA(i) * 2 * memdef.MiB); err != nil {
			t.Fatal(err)
		}
	}
	if err := vm.MapDMA(0, 0x1_0000_0000, 0); err != nil {
		t.Fatal(err)
	}
	vm.Destroy()
	vm.Destroy() // idempotent
	mustCheckFrames(t, h, "destroy")
	if after := h.Buddy.FreePages(); after != before {
		t.Errorf("FreePages %d -> %d after destroy", before, after)
	}
	if h.VMs() != 0 {
		t.Errorf("VMs = %d", h.VMs())
	}
}

// TestDestroyFreeListOrder pins where teardown leaves every freed
// frame: the buddy free lists and the PCP lists, in order, after
// destroying a VM with split hugepages and two IOPT groups. The order
// is what a respawned VM's tables and backing are carved from, so a
// teardown that frees the same frames in another order fails here
// even though TestDestroyReturnsAllMemory passes. The digest was
// recorded with one memmap scan per structure.
func TestDestroyFreeListOrder(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm, err := h.CreateVM(VMConfig{MemSize: 64 * memdef.MiB, VFIOGroups: 2, BootSplits: 8})
	if err != nil {
		t.Fatal(err)
	}
	for g, windows := range []int{40, 25} {
		for w := 0; w < windows; w++ {
			iova := memdef.IOVA(g+1)<<32 + memdef.IOVA(w)*memdef.HugePageSize
			if err := vm.MapDMA(g, iova, memdef.GPA(w%32)*memdef.HugePageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	vm.Destroy()
	mustCheckFrames(t, h, "destroy")
	sum := sha256.New()
	word := func(v uint64) { _ = binary.Write(sum, binary.LittleEndian, v) }
	for mt := memdef.MigrateType(0); mt < memdef.NumMigrateTypes; mt++ {
		for o := 0; o < memdef.MaxOrder; o++ {
			list := h.Buddy.FreeList(mt, o)
			word(uint64(len(list)))
			for _, p := range list {
				word(uint64(p))
			}
		}
		pcp := h.Buddy.PCP(mt)
		word(uint64(len(pcp)))
		for _, p := range pcp {
			word(uint64(p))
		}
	}
	const want = "0339e8514bdec6c8"
	if got := hex.EncodeToString(sum.Sum(nil)[:8]); got != want {
		t.Errorf("free-list digest after destroy = %s, want %s", got, want)
	}
}

func TestEPTReuseAfterSteeringLikeSequence(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm := newTestVM(t, h, 64*memdef.MiB)
	drv := virtio.NewGuestDriver(vm.MemDevice())
	drv.SuppressAutoPlug = true
	// Release two sub-blocks, then split many others so EPT pages get
	// allocated; some should land on released frames once the free
	// lists run low.
	if err := drv.UnplugSubBlock(10 * memdef.MiB); err != nil {
		t.Fatal(err)
	}
	if err := drv.UnplugSubBlock(20 * memdef.MiB); err != nil {
		t.Fatal(err)
	}
	for gpa := memdef.GPA(0); gpa < 64*memdef.MiB; gpa += 2 * memdef.MiB {
		if !vm.MemDevice().IsPlugged(gpa) {
			continue
		}
		if _, err := vm.ExecGPA(gpa); err != nil {
			t.Fatal(err)
		}
	}
	stats := vm.EPTReuse()
	if stats.ReleasedBlocks != 2 || stats.ReleasedPages != 1024 {
		t.Errorf("released: %+v", stats)
	}
	if stats.EPTPages != 30 {
		t.Errorf("EPTPages = %d, want 30 splits", stats.EPTPages)
	}
	if stats.RN() < 0 || stats.RN() > 1 || stats.RE() < 0 || stats.RE() > 1 {
		t.Errorf("ratios out of range: %+v", stats)
	}
}
