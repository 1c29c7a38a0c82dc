package guest

import (
	"errors"
	"testing"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/ept"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
)

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

func bootTestGuest(t *testing.T, vmSize uint64, fault *dram.FaultModelConfig) *OS {
	t.Helper()
	cfg := kvm.Config{
		Geometry:       testGeometry(),
		Fault:          dram.S1FaultModel(5),
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 300,
		Seed:           5,
	}
	if fault != nil {
		cfg.Fault = *fault
	}
	h, err := kvm.NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: vmSize, VFIOGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	return Boot(vm)
}

func TestBootPoolExcludesKernelReserve(t *testing.T) {
	os := bootTestGuest(t, 128*memdef.MiB, nil)
	want := int((128*memdef.MiB - KernelReserve) / memdef.HugePageSize)
	if got := os.FreeHugepages(); got != want {
		t.Errorf("FreeHugepages = %d, want %d", got, want)
	}
}

func TestAllocReadWriteFree(t *testing.T) {
	os := bootTestGuest(t, 128*memdef.MiB, nil)
	base, err := os.AllocHuge(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Write64(base+0x1000, 99); err != nil {
		t.Fatal(err)
	}
	if v, _ := os.Read64(base + 0x1000); v != 99 {
		t.Errorf("read back %d", v)
	}
	// Addresses outside the allocation fault in the guest.
	if _, err := os.Read64(base + 4*memdef.HugePageSize); !errors.Is(err, ErrBadAddress) {
		t.Errorf("OOB read: %v", err)
	}
	free := os.FreeHugepages()
	if err := os.FreeHuge(base, 4); err != nil {
		t.Fatal(err)
	}
	if os.FreeHugepages() != free+4 {
		t.Error("FreeHuge did not return chunks")
	}
	if _, err := os.Read64(base); !errors.Is(err, ErrBadAddress) {
		t.Errorf("read after free: %v", err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	os := bootTestGuest(t, 72*memdef.MiB, nil)
	if _, err := os.AllocHuge(os.FreeHugepages() + 1); !errors.Is(err, ErrNoMemory) {
		t.Errorf("over-alloc: %v", err)
	}
	if _, err := os.AllocHuge(0); err == nil {
		t.Error("zero alloc accepted")
	}
}

// THP end to end: the low 21 bits of a guest virtual address survive
// into the host physical address.
func TestTHPLow21BitsGVAToHPA(t *testing.T) {
	os := bootTestGuest(t, 128*memdef.MiB, nil)
	base, err := os.AllocHuge(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []memdef.GVA{0, 0x1FF008, 3*memdef.HugePageSize + 0xABCD8} {
		gva := base + off
		hpa, err := os.Hypercall(gva)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(hpa)&(memdef.HugePageSize-1) != uint64(gva)&(memdef.HugePageSize-1) {
			t.Errorf("gva %#x -> hpa %#x: low bits differ", gva, hpa)
		}
	}
}

func TestFillAndPageUniform(t *testing.T) {
	os := bootTestGuest(t, 96*memdef.MiB, nil)
	base, _ := os.AllocHuge(1)
	if err := os.FillPages(base+0x3000, 1, 0xAA55); err != nil {
		t.Fatal(err)
	}
	w, uniform, err := os.PageUniform(base + 0x3000)
	if err != nil || !uniform || w != 0xAA55 {
		t.Errorf("PageUniform = %#x,%v,%v", w, uniform, err)
	}
	if err := os.Write64(base+0x3008, 1); err != nil {
		t.Fatal(err)
	}
	if _, uniform, _ := os.PageUniform(base + 0x3000); uniform {
		t.Error("page still uniform after divergent write")
	}
}

func TestExecSplitsOnce(t *testing.T) {
	os := bootTestGuest(t, 96*memdef.MiB, nil)
	base, _ := os.AllocHuge(2)
	split, err := os.Exec(base)
	if err != nil || !split {
		t.Fatalf("first exec: %v %v", split, err)
	}
	split, err = os.Exec(base + 0x10000)
	if err != nil || split {
		t.Errorf("second exec: %v %v", split, err)
	}
	split, err = os.Exec(base + memdef.HugePageSize)
	if err != nil || !split {
		t.Errorf("exec in second hugepage: %v %v", split, err)
	}
}

func TestReleaseHugepage(t *testing.T) {
	os := bootTestGuest(t, 96*memdef.MiB, nil)
	os.InstallAttackDriver()
	base, _ := os.AllocHuge(3)
	victim := base + memdef.HugePageSize
	free := os.FreeHugepages()
	if err := os.ReleaseHugepage(victim + 0x555); err != nil {
		t.Fatal(err)
	}
	if os.FreeHugepages() != free {
		t.Error("released chunk returned to guest pool")
	}
	if _, err := os.Read64(victim); !errors.Is(err, ErrBadAddress) {
		t.Errorf("read of released page: %v", err)
	}
	// Neighbors still work.
	if _, err := os.Read64(base); err != nil {
		t.Errorf("neighbor read: %v", err)
	}
	if got := len(os.VM().Host().ReleasedBlockLog()); got != 1 {
		t.Errorf("host released log = %d", got)
	}
}

func TestMapDMA(t *testing.T) {
	os := bootTestGuest(t, 96*memdef.MiB, nil)
	base, _ := os.AllocHuge(1)
	if os.Groups() != 1 {
		t.Fatalf("Groups = %d", os.Groups())
	}
	for i := 0; i < 10; i++ {
		iova := memdef.IOVA(0x1_0000_0000 + uint64(i)*memdef.HugePageSize)
		if err := os.MapDMA(0, iova, base); err != nil {
			t.Fatal(err)
		}
	}
	if got := os.VM().GroupMappings(0); got != 10 {
		t.Errorf("mappings = %d", got)
	}
}

// ScanForFlips must agree with a brute-force read of every allocated
// page — the observational-equivalence contract of DESIGN.md §3.
func TestScanForFlipsMatchesBruteForce(t *testing.T) {
	fault := &dram.FaultModelConfig{
		Seed: 11, CellsPerRow: 1.2,
		ThresholdMin: 50_000, ThresholdMax: 100_000,
		StableFraction: 1.0, FlakyP: 1.0,
	}
	os := bootTestGuest(t, 128*memdef.MiB, fault)
	n := os.FreeHugepages()
	base, err := os.AllocHuge(n)
	if err != nil {
		t.Fatal(err)
	}
	const pattern = ^uint64(0) // all ones: 1->0 flips all observable
	if err := os.FillPages(base, n*memdef.PagesPerHuge, pattern); err != nil {
		t.Fatal(err)
	}
	// Pick aggressors in consecutive row-spans of the same bank, as
	// the attack does. Bank classes within a hugepage depend only on
	// the low 21 bits, so the offsets work for every hugepage.
	geo := testGeometry()
	rowSpan := uint64(256 * memdef.KiB)
	offA := 6 * rowSpan
	offB := 7 * rowSpan
	for ; offB < 8*rowSpan; offB += 64 {
		if geo.Bank(memdef.HPA(offA)) == geo.Bank(memdef.HPA(offB)) {
			break
		}
	}
	var flips []Flip
	for hp := 0; hp < n && len(flips) == 0; hp++ {
		a := base + memdef.GVA(uint64(hp)*memdef.HugePageSize+offA)
		b := base + memdef.GVA(uint64(hp)*memdef.HugePageSize+offB)
		if err := os.Hammer(HammerSpec{Aggressors: []memdef.GVA{a, b}, Rounds: 250_000}); err != nil {
			t.Fatal(err)
		}
		flips = os.ScanForFlips()
	}
	if len(flips) == 0 {
		t.Fatal("no flips found")
	}
	// Brute force: walk every allocated page and diff against the
	// pattern, collecting flip positions.
	var brute []Flip
	for i := 0; i < n*memdef.PagesPerHuge; i++ {
		pageGVA := base + memdef.GVA(i*memdef.PageSize)
		w, uniform, err := os.PageUniform(pageGVA)
		if err != nil {
			t.Fatal(err)
		}
		if uniform && w == pattern {
			continue
		}
		for off := memdef.GVA(0); off < memdef.PageSize; off += 8 {
			v, err := os.Read64(pageGVA + off)
			if err != nil {
				t.Fatal(err)
			}
			for bit := uint(0); bit < 64; bit++ {
				if (v>>bit)&1 != (pattern>>bit)&1 {
					dir := dram.FlipOneToZero
					if pattern>>bit&1 == 0 {
						dir = dram.FlipZeroToOne
					}
					brute = append(brute, Flip{
						GVA:       pageGVA + off + memdef.GVA(bit/8),
						Bit:       bit % 8,
						Direction: dir,
					})
				}
			}
		}
	}
	if len(brute) != len(flips) {
		t.Fatalf("scan found %d flips, brute force %d", len(flips), len(brute))
	}
	found := map[Flip]bool{}
	for _, f := range flips {
		found[f] = true
	}
	for _, b := range brute {
		if !found[b] {
			t.Errorf("brute-force flip %+v missing from scan", b)
		}
	}
	// A second scan reports nothing new.
	if again := os.ScanForFlips(); len(again) != 0 {
		t.Errorf("re-scan found %d flips", len(again))
	}
}

func TestScanForMappingChangesCleanVM(t *testing.T) {
	os := bootTestGuest(t, 96*memdef.MiB, nil)
	if _, err := os.AllocHuge(4); err != nil {
		t.Fatal(err)
	}
	if got := os.ScanForMappingChanges(); len(got) != 0 {
		t.Errorf("clean VM reports %d mapping changes", len(got))
	}
	before := os.Clock().Now()
	os.ScanForMappingChanges()
	if os.Clock().Now() == before {
		t.Error("scan charged no time")
	}
}

func TestFlipHelpers(t *testing.T) {
	f := Flip{GVA: 0x7F00_0000_1003, Bit: 5}
	if got := f.EPTEBit(); got != 3*8+5 {
		t.Errorf("EPTEBit = %d", got)
	}
	if got := f.HugepageBase(); got != 0x7F00_0000_0000 {
		t.Errorf("HugepageBase = %#x", got)
	}
}

// The guest's real page tables must agree with the cached translations
// at all times, live in the kernel reserve, and shrink/grow with the
// address space.
func TestPageTablesConsistentWithCache(t *testing.T) {
	os := bootTestGuest(t, 128*memdef.MiB, nil)
	if got := os.PageTablePages(); got != 1 {
		t.Fatalf("fresh guest has %d table pages, want 1 (root)", got)
	}
	base, err := os.AllocHuge(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		gva := base + memdef.GVA(i)*memdef.HugePageSize + 0x12340
		cached, err := os.GPAOf(gva)
		if err != nil {
			t.Fatal(err)
		}
		walked, err := os.walkGVA(gva)
		if err != nil {
			t.Fatal(err)
		}
		if cached != walked {
			t.Fatalf("cache %#x != walk %#x at %#x", cached, walked, gva)
		}
	}
	// Table pages occupy the kernel reserve.
	if got := os.PageTablePages(); got < 3 {
		t.Errorf("table pages = %d after mapping, want >= 3", got)
	}
	// After release, the walk faults like the cache does.
	os.InstallAttackDriver()
	victim := base + 2*memdef.HugePageSize
	if err := os.ReleaseHugepage(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := os.walkGVA(victim); err == nil {
		t.Error("page-table walk still translates a released hugepage")
	}
	if _, err := os.GPAOf(victim); err == nil {
		t.Error("cache still translates a released hugepage")
	}
	// FreeHuge unmaps too.
	if err := os.FreeHuge(base, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.walkGVA(base); err == nil {
		t.Error("walk translates a freed region")
	}
}

// The guest page-table memory's stride write is the split's 512 entry
// writes: a split of one of the guest's own 2 MiB leaves reads back,
// entry for entry, what the entry-by-entry loop writes, and the pages
// still translate to the same guest frames.
func TestGuestMemoryFillStrideMatchesLoop(t *testing.T) {
	os := bootTestGuest(t, 128*memdef.MiB, nil)
	gva, err := os.AllocHuge(1)
	if err != nil {
		t.Fatal(err)
	}
	gpa, err := os.GPAOf(gva)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := os.pt.SplitHuge(uint64(gva), ept.PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	g := guestMemory{os.vm}
	base := memdef.PFN(gpa >> memdef.PageShift)
	for i := 0; i < memdef.PagesPerHuge; i++ {
		if w, want := g.PageWord(leaf, i), ept.NewEntry(base+memdef.PFN(i), ept.PermRWX, false); ept.Entry(w) != want {
			t.Fatalf("guest leaf entry %d = %#x, want %#x", i, w, want)
		}
	}
	for i := 0; i < memdef.PagesPerHuge; i += 73 {
		off := memdef.GVA(i)*memdef.PageSize + 8
		if got, err := os.walkGVA(gva + off); err != nil || got != gpa+memdef.GPA(off) {
			t.Errorf("page %d walks to %#x, %v; want %#x", i, got, err, gpa+memdef.GPA(off))
		}
	}
}

// The guest's page-table pages are real guest memory: their contents
// are EPT-translated words in the kernel reserve that a host-side
// inspection can see.
func TestPageTablesLiveInGuestMemory(t *testing.T) {
	os := bootTestGuest(t, 128*memdef.MiB, nil)
	base, err := os.AllocHuge(1)
	if err != nil {
		t.Fatal(err)
	}
	gpa, err := os.GPAOf(base)
	if err != nil {
		t.Fatal(err)
	}
	// Scan the kernel reserve for a guest PD entry naming this chunk:
	// a 2 MiB-leaf entry whose PFN is the chunk's GFN.
	found := false
	for off := memdef.GPA(4 * memdef.MiB); off < KernelReserve && !found; off += 8 {
		w, err := os.VM().ReadGPA64(off)
		if err != nil || w == 0 {
			continue
		}
		if w&(1<<7) != 0 && memdef.PFN(w>>12&0xFFFFFFFFF) == memdef.PFN(gpa>>12) {
			found = true
		}
	}
	if !found {
		t.Error("no guest page-table entry for the allocation found in the kernel reserve")
	}
}

// A one-spec Hammer call with a literal aggressor list allocates
// nothing in steady state: the profile sweep and its stability retests
// make one per hammered pair.
func TestHammerOneSpecAllocatesNothing(t *testing.T) {
	os := bootTestGuest(t, 96*memdef.MiB, nil)
	base, err := os.AllocHuge(1)
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeometry()
	rowSpan := uint64(256 * memdef.KiB)
	offA, offB := 6*rowSpan, 7*rowSpan
	for geo.Bank(memdef.HPA(offA)) != geo.Bank(memdef.HPA(offB)) {
		offB += 64
	}
	a, b := base+memdef.GVA(offA), base+memdef.GVA(offB)
	// One round stays below every threshold, so no flip lands.
	hammer := func() {
		if err := os.Hammer(HammerSpec{Aggressors: []memdef.GVA{a, b}, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
	}
	hammer()
	if n := testing.AllocsPerRun(100, hammer); n != 0 {
		t.Errorf("one-spec Hammer allocates %v times per call, want 0", n)
	}
}
