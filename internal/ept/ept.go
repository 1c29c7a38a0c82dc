// Package ept implements 4-level hardware page tables stored inside
// the simulated physical memory. The same machinery backs both the
// extended page tables (EPT) that KVM uses to translate guest physical
// to host physical addresses (Section 2.2) and the IOMMU page tables
// (IOPT) that translate I/O virtual addresses (Section 2.5).
//
// Crucially, table pages live in phys.Memory and every walk re-reads
// the stored words. A Rowhammer bit flip that lands in a table page
// therefore genuinely changes address translation — which is the whole
// attack.
package ept

import (
	"errors"
	"fmt"

	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/metrics"
)

// Ledger event codes for the ept.mutation determinism stream.
const (
	ledEPTMap4K = uint64(iota + 1)
	ledEPTMap2M
	ledEPTSetPerm
	ledEPTSplit
	ledEPTUnmap
)

// Perm is the permission triple of an EPT entry (bits 0-2).
type Perm uint8

const (
	// PermRead allows reads through the mapping.
	PermRead Perm = 1 << 0
	// PermWrite allows writes through the mapping.
	PermWrite Perm = 1 << 1
	// PermExec allows instruction fetches through the mapping. The
	// iTLB Multihit countermeasure clears this bit on 2 MiB leaves.
	PermExec Perm = 1 << 2

	// PermRW is the usual data permission set.
	PermRW = PermRead | PermWrite
	// PermRWX grants everything.
	PermRWX = PermRead | PermWrite | PermExec
)

// Entry is one 64-bit EPT/IOPT entry.
//
// Layout (Intel SDM Vol 3C, simplified to the bits the paper uses):
//
//	bits 0-2   R/W/X permissions; all zero means not present
//	bit 7      large page (2 MiB leaf when set at level 2)
//	bits 12-47 physical frame number
type Entry uint64

const (
	largeBit = 1 << 7
	pfnMask  = 0x0000FFFFFFFFF000
)

// NewEntry builds an entry pointing at frame pfn with the given
// permissions; large marks a 2 MiB leaf.
func NewEntry(pfn memdef.PFN, perm Perm, large bool) Entry {
	e := Entry(uint64(pfn)<<memdef.PageShift&pfnMask) | Entry(perm&7)
	if large {
		e |= largeBit
	}
	return e
}

// Present reports whether the entry grants any access.
func (e Entry) Present() bool { return e&7 != 0 }

// Perm returns the entry's permission bits.
func (e Entry) Perm() Perm { return Perm(e & 7) }

// Large reports the 2 MiB-leaf bit.
func (e Entry) Large() bool { return e&largeBit != 0 }

// PFN returns the frame number in bits 12-47.
func (e Entry) PFN() memdef.PFN { return memdef.PFN((uint64(e) & pfnMask) >> memdef.PageShift) }

// WithPerm returns the entry with its permission bits replaced.
func (e Entry) WithPerm(p Perm) Entry { return (e &^ 7) | Entry(p&7) }

// Memory is the word-addressable storage a table structure lives in.
// The hypervisor's EPT/IOPT structures live in host physical memory
// (phys.Memory); a guest's own page tables live in guest physical
// memory through the same interface, so both are subject to whatever
// corruption reaches their storage.
type Memory interface {
	// Word returns the 64-bit word at an 8-byte-aligned address.
	Word(a memdef.HPA) uint64
	// SetWord writes the 64-bit word at an 8-byte-aligned address.
	SetWord(a memdef.HPA, v uint64)
	// ZeroPage clears one frame.
	ZeroPage(p memdef.PFN)
	// SetPageWord writes word idx of a frame.
	SetPageWord(p memdef.PFN, idx int, v uint64)
	// FillStride sets word i of a frame to w0 + i<<12 for every i in
	// 0..511: a split leaf whose entries map consecutive frames.
	FillStride(p memdef.PFN, w0 uint64)
	// Frames returns the number of addressable frames.
	Frames() int
}

// Allocator provides zeroable table pages. The hypervisor implements
// it on top of the host buddy allocator with MIGRATE_UNMOVABLE order-0
// pages — the allocation the attacker steers onto vulnerable frames —
// and records each page's owner and level, so it frees them too.
type Allocator interface {
	// AllocTable returns a frame to be used as a table page at level.
	AllocTable(level int) (memdef.PFN, error)
}

// Errors returned by table operations.
var (
	// ErrNotMapped reports a translation of an unmapped address
	// (an EPT violation, which KVM handles by faulting in pages).
	ErrNotMapped = errors.New("ept: address not mapped")
	// ErrMisconfigured reports a walk through an entry whose frame
	// number points outside physical memory — what the hardware
	// reports as an EPT misconfiguration. Flips can cause this.
	ErrMisconfigured = errors.New("ept: misconfigured entry")
	// ErrAlreadyMapped reports a conflicting Map call.
	ErrAlreadyMapped = errors.New("ept: range already mapped")
	// ErrNotHuge reports SplitHuge on a non-hugepage mapping.
	ErrNotHuge = errors.New("ept: mapping is not a 2 MiB leaf")
)

// Structure levels. The root is level 4 (PML4-equivalent): the paper
// evaluates 4-level paging, and its attack targets the leaf pages,
// which 5-level mode (Section 2.2) shares unchanged. Level 1 is the
// leaf page table; a 2 MiB leaf terminates the walk at level 2.
const (
	leafLevel = 1
	rootLevel = 4
	// countLevels sizes the per-level table counts (index = level, 0
	// unused). It leaves room for a level-5 root so the layout census
	// keeps the six-entry per-level list that recorded artifacts carry.
	countLevels = 6
)

// LevelCounts counts table pages by level (index = level, 0 unused).
type LevelCounts = [countLevels]int

// Table is one 4-level translation structure.
type Table struct {
	mem   Memory
	alloc Allocator
	root  memdef.PFN

	// leaf4k and leaf2m count installed leaf mappings by page size,
	// and byLevel counts the table pages the allocator handed out by
	// level (index = level). It is hypervisor bookkeeping, not the
	// truth: translation always follows the (possibly flip-corrupted)
	// words in memory. Maintained O(1) so the layout census never walks
	// the structure.
	leaf4k, leaf2m int
	byLevel        [countLevels]int

	met tableMetrics
	led *ledger.Stream
}

// tableMetrics caches the structure's instrument handles; all nil
// (no-op) until SetMetrics. Series are shared by name across every
// Table wired to the same registry, so per-VM EPTs and per-group IOPTs
// aggregate into one family.
type tableMetrics struct {
	translations *metrics.Counter
	violations   *metrics.Counter
	splits       *metrics.Counter
	tablePages   *metrics.Gauge
}

// SetMetrics registers the structure's instruments with reg and
// credits its already-allocated table pages to the shared gauge. A nil
// registry leaves the structure uninstrumented at zero cost.
func (t *Table) SetMetrics(reg *metrics.Registry) {
	t.met = tableMetrics{
		translations: reg.Counter("ept_translations_total", "Page-table walks attempted (EPT and IOPT)."),
		violations:   reg.Counter("ept_violations_total", "Walks that faulted: not-mapped (EPT violation) or misconfigured entries."),
		splits:       reg.Counter("ept_splits_total", "2 MiB leaves demoted to 4 KiB leaf tables."),
		tablePages:   reg.Gauge("ept_table_pages", "Live hypervisor-allocated table pages across all structures."),
	}
	t.met.tablePages.Add(int64(t.NumTables()))
}

// SetLedger attaches a determinism-ledger stream for structure
// mutations. The caller passes the resolved stream handle rather than
// a recorder so every Table of one host (per-VM EPTs, per-group IOPTs)
// folds into the same "ept.mutation" stream; a nil handle leaves the
// structure unledgered at zero cost.
func (t *Table) SetLedger(s *ledger.Stream) {
	t.led = s
}

// New allocates an empty 4-level table structure.
func New(mem Memory, alloc Allocator) (*Table, error) {
	root, err := alloc.AllocTable(rootLevel)
	if err != nil {
		return nil, fmt.Errorf("ept: allocating root: %w", err)
	}
	mem.ZeroPage(root)
	t := &Table{mem: mem, alloc: alloc, root: root}
	t.byLevel[rootLevel] = 1
	return t, nil
}

// Root returns the root table frame.
func (t *Table) Root() memdef.PFN { return t.root }

func index(va uint64, level int) int {
	return int(va>>(memdef.PageShift+9*uint(level-1))) & (memdef.EntriesPerTable - 1)
}

// entryAddr returns the physical address of the entry for va within
// table page tp at the given level.
func entryAddr(tp memdef.PFN, va uint64, level int) memdef.HPA {
	return tp.HPAOf() + memdef.HPA(index(va, level)*8)
}

func (t *Table) readEntry(tp memdef.PFN, va uint64, level int) Entry {
	return Entry(t.mem.Word(entryAddr(tp, va, level)))
}

func (t *Table) writeEntry(tp memdef.PFN, va uint64, level int, e Entry) {
	t.mem.SetWord(entryAddr(tp, va, level), uint64(e))
}

func (t *Table) frameValid(p memdef.PFN) bool {
	return uint64(p) < uint64(t.mem.Frames())
}

// walkTo descends to the table page holding the entry for va at
// toLevel, allocating intermediate tables if create is set. It returns
// the table page at toLevel.
func (t *Table) walkTo(va uint64, toLevel int, create bool) (memdef.PFN, error) {
	tp := t.root
	for level := rootLevel; level > toLevel; level-- {
		e := t.readEntry(tp, va, level)
		if !e.Present() {
			if !create {
				return 0, ErrNotMapped
			}
			next, err := t.alloc.AllocTable(level - 1)
			if err != nil {
				return 0, fmt.Errorf("ept: allocating level-%d table: %w", level-1, err)
			}
			t.mem.ZeroPage(next)
			t.addTable(level - 1)
			t.writeEntry(tp, va, level, NewEntry(next, PermRWX, false))
			tp = next
			continue
		}
		if e.Large() {
			return 0, ErrAlreadyMapped
		}
		next := e.PFN()
		if !t.frameValid(next) {
			return 0, ErrMisconfigured
		}
		tp = next
	}
	return tp, nil
}

// Map4K installs a 4 KiB mapping va -> frame with permissions perm.
func (t *Table) Map4K(va uint64, frame memdef.PFN, perm Perm) error {
	tp, err := t.walkTo(va, leafLevel, true)
	if err != nil {
		return err
	}
	if t.readEntry(tp, va, leafLevel).Present() {
		return ErrAlreadyMapped
	}
	t.writeEntry(tp, va, leafLevel, NewEntry(frame, perm, false))
	t.leaf4k++
	t.led.Fold4(ledEPTMap4K, va, uint64(frame), uint64(perm))
	return nil
}

// Map2M installs a 2 MiB leaf mapping at level 2. va and frame must be
// 2 MiB aligned.
func (t *Table) Map2M(va uint64, frame memdef.PFN, perm Perm) error {
	if !memdef.HugeAligned(va) || !memdef.HugeAligned(uint64(frame)<<memdef.PageShift) {
		return fmt.Errorf("ept: unaligned 2M mapping va=%#x frame=%d", va, frame)
	}
	tp, err := t.walkTo(va, 2, true)
	if err != nil {
		return err
	}
	if t.readEntry(tp, va, 2).Present() {
		return ErrAlreadyMapped
	}
	t.writeEntry(tp, va, 2, NewEntry(frame, perm, true))
	t.leaf2m++
	t.led.Fold4(ledEPTMap2M, va, uint64(frame), uint64(perm))
	return nil
}

// Translation is the result of a successful walk.
type Translation struct {
	// HPA is the translated physical address.
	HPA memdef.HPA
	// Perm is the effective permission of the leaf entry.
	Perm Perm
	// PageSize is 4 KiB or 2 MiB.
	PageSize uint64
	// EntryAddr is the physical address of the leaf entry used —
	// exposed so instrumentation (and tests) can locate the EPTE
	// without re-walking.
	EntryAddr memdef.HPA
	// Level is the level the walk terminated at (1 or 2).
	Level int
}

// Translate walks the structure for va. It follows whatever the table
// words currently say, so corrupted entries translate "successfully"
// to wherever they now point, exactly like hardware.
func (t *Table) Translate(va uint64) (Translation, error) {
	t.met.translations.Inc()
	tp := t.root
	for level := rootLevel; level >= leafLevel; level-- {
		e := t.readEntry(tp, va, level)
		if !e.Present() {
			t.met.violations.Inc()
			return Translation{}, ErrNotMapped
		}
		isLeaf := level == leafLevel || (level == 2 && e.Large())
		if isLeaf {
			var pageSize uint64 = memdef.PageSize
			if level == 2 {
				pageSize = memdef.HugePageSize
			}
			base := uint64(e.PFN()) << memdef.PageShift
			hpa := memdef.HPA(base&^(pageSize-1) | va&(pageSize-1))
			if !t.frameValid(memdef.PFNOf(hpa)) {
				t.met.violations.Inc()
				return Translation{}, ErrMisconfigured
			}
			return Translation{
				HPA:       hpa,
				Perm:      e.Perm(),
				PageSize:  pageSize,
				EntryAddr: entryAddr(tp, va, level),
				Level:     level,
			}, nil
		}
		if e.Large() {
			t.met.violations.Inc()
			return Translation{}, ErrMisconfigured
		}
		next := e.PFN()
		if !t.frameValid(next) {
			t.met.violations.Inc()
			return Translation{}, ErrMisconfigured
		}
		tp = next
	}
	panic("unreachable")
}

// SetLeafPerm replaces the permission bits of the leaf entry mapping
// va (either page size). Used by the multihit countermeasure to mark
// hugepages non-executable.
func (t *Table) SetLeafPerm(va uint64, perm Perm) error {
	tr, err := t.Translate(va)
	if err != nil {
		return err
	}
	e := Entry(t.mem.Word(tr.EntryAddr))
	t.mem.SetWord(tr.EntryAddr, uint64(e.WithPerm(perm)))
	t.led.Fold3(ledEPTSetPerm, va, uint64(perm))
	return nil
}

// SplitHuge demotes the 2 MiB leaf covering va into 512 4 KiB entries
// with permissions perm, allocating one new leaf table page — the
// exact operation the iTLB Multihit countermeasure performs and the
// allocation that Page Steering targets (Section 4.2.3). It returns
// the frame of the new leaf table.
//
// Entry i maps frame base+i, so it equals entry 0 plus i<<12 whenever
// base+511 fits the PFN field, and the leaf is written in one
// FillStride. A 2 MiB entry whose low PFN bits were flipped can put
// base+511 past the field, where NewEntry masks the PFN; that leaf is
// written entry by entry.
func (t *Table) SplitHuge(va uint64, perm Perm) (memdef.PFN, error) {
	va = uint64(memdef.HugeBase(va))
	tp, err := t.walkTo(va, 2, false)
	if err != nil {
		return 0, err
	}
	e := t.readEntry(tp, va, 2)
	if !e.Present() || !e.Large() {
		return 0, ErrNotHuge
	}
	leaf, err := t.alloc.AllocTable(leafLevel)
	if err != nil {
		return 0, fmt.Errorf("ept: allocating split leaf: %w", err)
	}
	t.addTable(leafLevel)
	t.met.splits.Inc()
	base := e.PFN()
	if last := base + memdef.PagesPerHuge - 1; NewEntry(last, perm, false).PFN() == last {
		t.mem.FillStride(leaf, uint64(NewEntry(base, perm, false)))
	} else {
		t.mem.ZeroPage(leaf)
		for i := 0; i < memdef.PagesPerHuge; i++ {
			t.mem.SetPageWord(leaf, i, uint64(NewEntry(base+memdef.PFN(i), perm, false)))
		}
	}
	t.writeEntry(tp, va, 2, NewEntry(leaf, PermRWX, false))
	t.leaf2m--
	t.leaf4k += memdef.PagesPerHuge
	t.led.Fold3(ledEPTSplit, va, uint64(leaf))
	return leaf, nil
}

// Unmap clears the leaf entry covering va (4 KiB or 2 MiB leaf) and
// returns the entry that was removed. Table pages are not reclaimed on
// unmap, matching KVM's behaviour of keeping the paging structure.
func (t *Table) Unmap(va uint64) (Entry, error) {
	tr, err := t.Translate(va)
	if err != nil {
		return 0, err
	}
	e := Entry(t.mem.Word(tr.EntryAddr))
	t.mem.SetWord(tr.EntryAddr, 0)
	t.led.Fold3(ledEPTUnmap, va, uint64(e))
	if tr.Level == 2 {
		t.leaf2m--
	} else {
		t.leaf4k--
	}
	return e, nil
}

// Leaves returns the installed leaf-mapping counts by page size
// (4 KiB, 2 MiB), per bookkeeping. The memory-layout census reads the
// guest's page-size distribution from here without walking the
// structure.
func (t *Table) Leaves() (leaf4k, leaf2m int) { return t.leaf4k, t.leaf2m }

// addTable counts a freshly allocated table page at level.
func (t *Table) addTable(level int) {
	t.byLevel[level]++
	t.met.tablePages.Add(1)
}

// TableCountByLevel returns how many table pages exist at each level
// (index = level, 0 unused). Level 1 counts the leaf tables — the
// paper's "EPT pages" count E.
func (t *Table) TableCountByLevel() LevelCounts { return t.byLevel }

// NumTables returns the total number of table pages at all levels.
func (t *Table) NumTables() int {
	n := 0
	for _, c := range t.byLevel {
		n += c
	}
	return n
}

// Destroy zeroes the per-level counts and takes the table pages off
// the shared gauge. The allocator's owner frees the frames.
func (t *Table) Destroy() {
	t.met.tablePages.Add(-int64(t.NumTables()))
	t.byLevel = LevelCounts{}
}
