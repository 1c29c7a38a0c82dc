package ept

import (
	"errors"
	"testing"

	"hyperhammer/internal/memdef"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/phys"
)

// bumpAlloc hands out frames upward from a private pool and records
// each one's level, as the hypervisor's memmap does.
type bumpAlloc struct {
	next   memdef.PFN
	levels map[memdef.PFN]int
}

func (b *bumpAlloc) AllocTable(level int) (memdef.PFN, error) {
	if b.levels == nil {
		b.levels = make(map[memdef.PFN]int)
	}
	p := b.next
	b.next++
	b.levels[p] = level
	return p, nil
}

// tablePages counts the frames handed out at level.
func (b *bumpAlloc) tablePages(level int) int {
	n := 0
	for _, l := range b.levels {
		if l == level {
			n++
		}
	}
	return n
}

func newTestTable(t *testing.T) (*Table, *phys.Memory, *bumpAlloc) {
	t.Helper()
	mem := phys.New(64 * memdef.MiB)
	alloc := &bumpAlloc{next: 1000}
	tbl, err := New(mem, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mem, alloc
}

func TestEntryFormat(t *testing.T) {
	e := NewEntry(0x12345, PermRW, false)
	if !e.Present() || e.Large() {
		t.Error("entry flags wrong")
	}
	if e.PFN() != 0x12345 {
		t.Errorf("PFN = %#x", e.PFN())
	}
	if e.Perm() != PermRW {
		t.Errorf("Perm = %v", e.Perm())
	}
	h := NewEntry(0x200, PermRWX, true)
	if !h.Large() {
		t.Error("large bit lost")
	}
	if got := h.WithPerm(PermRead); got.Perm() != PermRead || !got.Large() {
		t.Error("WithPerm mangled entry")
	}
	var zero Entry
	if zero.Present() {
		t.Error("zero entry present")
	}
}

func TestMap4KTranslate(t *testing.T) {
	tbl, _, _ := newTestTable(t)
	if err := tbl.Map4K(0x7000_2000, 42, PermRW); err != nil {
		t.Fatal(err)
	}
	tr, err := tbl.Translate(0x7000_2ABC)
	if err != nil {
		t.Fatal(err)
	}
	if want := memdef.HPA(42*memdef.PageSize + 0xABC); tr.HPA != want {
		t.Errorf("HPA = %#x, want %#x", tr.HPA, want)
	}
	if tr.PageSize != memdef.PageSize || tr.Perm != PermRW || tr.Level != 1 {
		t.Errorf("translation meta wrong: %+v", tr)
	}
	// A 4-level walk for one page allocates root + 3 tables.
	if got := tbl.NumTables(); got != 4 {
		t.Errorf("NumTables = %d, want 4", got)
	}
}

func TestMap2MTranslate(t *testing.T) {
	tbl, _, _ := newTestTable(t)
	framesPerHuge := memdef.PFN(memdef.PagesPerHuge)
	if err := tbl.Map2M(4*memdef.MiB, 2*framesPerHuge, PermRWX); err != nil {
		t.Fatal(err)
	}
	tr, err := tbl.Translate(4*memdef.MiB + 0x12345)
	if err != nil {
		t.Fatal(err)
	}
	if want := memdef.HPA(4*memdef.MiB + 0x12345); tr.HPA != want {
		t.Errorf("HPA = %#x, want %#x", tr.HPA, want)
	}
	if tr.PageSize != memdef.HugePageSize || tr.Level != 2 {
		t.Errorf("translation meta wrong: %+v", tr)
	}
}

func TestMapErrors(t *testing.T) {
	tbl, _, _ := newTestTable(t)
	if err := tbl.Map2M(123, 0, PermRW); err == nil {
		t.Error("unaligned Map2M accepted")
	}
	if err := tbl.Map4K(0x1000, 1, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map4K(0x1000, 2, PermRW); !errors.Is(err, ErrAlreadyMapped) {
		t.Errorf("double Map4K: %v", err)
	}
	if err := tbl.Map2M(0, 512, PermRW); !errors.Is(err, ErrAlreadyMapped) {
		t.Errorf("Map2M over 4K: %v", err)
	}
	if _, err := tbl.Translate(0x9999_0000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("Translate unmapped: %v", err)
	}
}

func TestSplitHuge(t *testing.T) {
	tbl, mem, _ := newTestTable(t)
	if err := tbl.Map2M(2*memdef.MiB, 512, PermRW); err != nil { // NX hugepage
		t.Fatal(err)
	}
	before := tbl.NumTables()
	leaf, err := tbl.SplitHuge(2*memdef.MiB+0x555, PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumTables() != before+1 {
		t.Errorf("split allocated %d tables, want 1", tbl.NumTables()-before)
	}
	// Every 4 KiB page translates to the same frames as before, now
	// executable and via a level-1 leaf.
	for i := 0; i < memdef.PagesPerHuge; i += 37 {
		va := uint64(2*memdef.MiB + i*memdef.PageSize + 8)
		tr, err := tbl.Translate(va)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if want := memdef.HPA(512*memdef.PageSize + uint64(i*memdef.PageSize) + 8); tr.HPA != want {
			t.Errorf("page %d HPA = %#x, want %#x", i, tr.HPA, want)
		}
		if tr.Perm != PermRWX || tr.Level != 1 {
			t.Errorf("page %d: perm %v level %d", i, tr.Perm, tr.Level)
		}
	}
	// The new leaf table's content is real memory: 512 entries, entry
	// i mapping frame 512+i, written as one stride record.
	for i := 0; i < memdef.PagesPerHuge; i++ {
		if w, want := mem.PageWord(leaf, i), NewEntry(memdef.PFN(512+i), PermRWX, false); Entry(w) != want {
			t.Fatalf("leaf entry %d = %#x, want %#x", i, w, want)
		}
	}
	if _, ok := mem.PageStride(leaf); !ok {
		t.Error("split leaf not written in stride form")
	}
	// Splitting again fails: no longer huge.
	if _, err := tbl.SplitHuge(2*memdef.MiB, PermRWX); !errors.Is(err, ErrNotHuge) {
		t.Errorf("second split: %v", err)
	}
}

// A 2 MiB entry whose PFN was corrupted so that base+511 passes the
// PFN field: NewEntry masks each entry's PFN, so entry i no longer
// equals entry 0 plus i<<12, and the split must write the 512 words
// the entry-by-entry loop writes.
func TestSplitHugeAcrossPFNMask(t *testing.T) {
	tbl, mem, _ := newTestTable(t)
	if err := tbl.Map2M(2*memdef.MiB, 512, PermRW); err != nil {
		t.Fatal(err)
	}
	tr, err := tbl.Translate(2 * memdef.MiB)
	if err != nil {
		t.Fatal(err)
	}
	const maxPFN = memdef.PFN(pfnMask >> memdef.PageShift)
	base := maxPFN - 10 // base+11 wraps to PFN 0
	mem.SetWord(tr.EntryAddr, uint64(NewEntry(base, PermRW, true)))
	leaf, err := tbl.SplitHuge(2*memdef.MiB, PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < memdef.PagesPerHuge; i++ {
		if w, want := mem.PageWord(leaf, i), NewEntry(base+memdef.PFN(i), PermRWX, false); Entry(w) != want {
			t.Fatalf("leaf entry %d = %#x, want %#x", i, w, want)
		}
	}
	if NewEntry(base+11, PermRWX, false).PFN() != 0 {
		t.Fatal("test setup: entry 11 does not wrap")
	}
	if _, ok := mem.PageStride(leaf); ok {
		t.Error("leaf across the PFN mask written in stride form")
	}
}

func TestSetLeafPerm(t *testing.T) {
	tbl, _, _ := newTestTable(t)
	if err := tbl.Map2M(0, 512, PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetLeafPerm(0x1234, PermRW); err != nil {
		t.Fatal(err)
	}
	tr, _ := tbl.Translate(0)
	if tr.Perm != PermRW {
		t.Errorf("perm after SetLeafPerm = %v", tr.Perm)
	}
}

func TestUnmap(t *testing.T) {
	tbl, _, _ := newTestTable(t)
	if err := tbl.Map4K(0x4000, 7, PermRW); err != nil {
		t.Fatal(err)
	}
	e, err := tbl.Unmap(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if e.PFN() != 7 {
		t.Errorf("unmapped entry PFN = %d", e.PFN())
	}
	if _, err := tbl.Translate(0x4000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("translate after unmap: %v", err)
	}
}

// A bit flip in a leaf EPTE must redirect translation — the physical
// mechanism of the whole attack.
func TestFlipInLeafEntryRedirectsTranslation(t *testing.T) {
	tbl, mem, _ := newTestTable(t)
	if err := tbl.Map4K(0x8000, 64, PermRW); err != nil { // PFN 64 = bit 6
		t.Fatal(err)
	}
	tr, _ := tbl.Translate(0x8000)
	// Flip bit 12+7=19 of the entry: PFN 64 -> 64+128 = 192.
	byteAddr := tr.EntryAddr + 2 // bits 16..23 live in byte 2
	if !mem.FlipBit(byteAddr, 3, false) {
		t.Fatal("flip did not apply")
	}
	tr2, err := tbl.Translate(0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if want := memdef.HPA(192 * memdef.PageSize); tr2.HPA != want {
		t.Errorf("post-flip HPA = %#x, want %#x", tr2.HPA, want)
	}
}

// A flip that pushes the PFN outside physical memory must surface as a
// misconfiguration, not a crash.
func TestFlipOutOfRangeIsMisconfiguration(t *testing.T) {
	tbl, mem, _ := newTestTable(t)
	if err := tbl.Map4K(0x8000, 3, PermRW); err != nil {
		t.Fatal(err)
	}
	tr, _ := tbl.Translate(0x8000)
	// Set a high PFN bit (bit 40 of the entry = byte 5, bit 0).
	if !mem.FlipBit(tr.EntryAddr+5, 0, false) {
		t.Fatal("flip did not apply")
	}
	if _, err := tbl.Translate(0x8000); !errors.Is(err, ErrMisconfigured) {
		t.Errorf("expected misconfiguration, got %v", err)
	}
}

func TestTablePagesAndDestroy(t *testing.T) {
	tbl, _, alloc := newTestTable(t)
	reg := metrics.New()
	tbl.SetMetrics(reg)
	for i := 0; i < 4; i++ {
		if err := tbl.Map2M(uint64(i)*memdef.HugePageSize, memdef.PFN(512*(i+1)), PermRW); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.SplitHuge(0, PermRWX); err != nil {
		t.Fatal(err)
	}
	if got := alloc.tablePages(1); got != 1 {
		t.Errorf("leaf tables = %d, want 1", got)
	}
	if l, ok := alloc.levels[tbl.Root()]; !ok || l != rootLevel {
		t.Errorf("root booked at level %d (%v), want %d", l, ok, rootLevel)
	}
	gauge := reg.Gauge("ept_table_pages", "").Value
	if n := tbl.NumTables(); n != len(alloc.levels) || gauge() != int64(n) {
		t.Errorf("NumTables = %d, gauge %v, allocator handed out %d", n, gauge(), len(alloc.levels))
	}
	tbl.Destroy()
	if n, g := tbl.NumTables(), gauge(); n != 0 || g != 0 {
		t.Errorf("after Destroy: NumTables = %d, gauge %v, want 0", n, g)
	}
}

// TestTableCountByLevelBookkeeping checks the O(1) per-level counts
// against the levels the allocator was asked for after maps and
// splits, and against zero after a teardown.
func TestTableCountByLevelBookkeeping(t *testing.T) {
	// The tables are 4-level; the subtest keeps the per-depth name.
	t.Run("levels=4", func(t *testing.T) {
		alloc := &bumpAlloc{next: 3000}
		check := func(tbl *Table, step string) {
			t.Helper()
			got := tbl.TableCountByLevel()
			for l := range got {
				if want := alloc.tablePages(l); got[l] != want {
					t.Errorf("%s: level %d count = %d, allocator handed out %d", step, l, got[l], want)
				}
			}
		}
		tbl, err := New(phys.New(64*memdef.MiB), alloc)
		if err != nil {
			t.Fatal(err)
		}
		check(tbl, "new")
		for i := 0; i < 6; i++ {
			// Three hugepages in each of two 1 GiB regions, so two level-2
			// tables hang off the level-3 table.
			va := uint64(i%2)<<30 | uint64(i/2)*memdef.HugePageSize
			if err := tbl.Map2M(va, memdef.PFN(512*(i+1)), PermRW); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Map4K(uint64(3)<<39, 7, PermRW); err != nil {
			t.Fatal(err)
		}
		check(tbl, "mapped")
		for _, va := range []uint64{0, 1 << 30, 2 * memdef.HugePageSize} {
			if _, err := tbl.SplitHuge(va, PermRWX); err != nil {
				t.Fatal(err)
			}
		}
		check(tbl, "split")
		if got := tbl.TableCountByLevel()[1]; got != 4 {
			t.Errorf("leaf tables = %d, want 3 splits + 1 Map4K leaf", got)
		}
		tbl.Destroy()
		if got := tbl.TableCountByLevel(); got != [countLevels]int{} {
			t.Errorf("counts after Destroy = %v, want all zero", got)
		}
	})
}
