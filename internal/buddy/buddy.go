// Package buddy implements a Linux-style buddy page allocator for the
// simulated host kernel: per-migration-type free lists for block
// orders 0 through MAX_ORDER-1, block splitting and coalescing,
// fallback stealing between migration types, and an order-0 per-CPU
// pageset (PCP) cache.
//
// Page Steering's success depends on exact buddy mechanics — the
// kernel prefers small blocks, falls back to splitting order-9/10
// blocks, serves order-0 allocations from the PCP first, and keeps
// MIGRATE_UNMOVABLE and MIGRATE_MOVABLE pages on separate lists
// (Sections 2.3, 2.4, 4.2 of the paper) — so those mechanics are
// modelled directly rather than approximated.
package buddy

import (
	"errors"
	"fmt"
	"strconv"

	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/memmap"
	"hyperhammer/internal/metrics"
)

// Ledger event codes for the buddy.alloc determinism stream.
const (
	ledBuddyAlloc = uint64(iota + 1)
	ledBuddyFree
	ledBuddyPCPAlloc
	ledBuddyPCPFree
)

// ErrOutOfMemory is returned when no free block of any usable order or
// migration type can satisfy an allocation.
var ErrOutOfMemory = errors.New("buddy: out of memory")

// PCP tuning, Linux's stock values.
const (
	// pcpBatch is the number of order-0 pages moved between the PCP
	// cache and the buddy lists per refill or drain.
	pcpBatch = 31
	// pcpHigh is the PCP high watermark: freeing beyond it drains a
	// batch back to the buddy lists.
	pcpHigh = 186
)

// Allocator is the buddy allocator over a contiguous PFN range.
// It is not safe for concurrent use.
type Allocator struct {
	start memdef.PFN
	pages uint64

	// freeLists[mt][order] holds the PFNs of free blocks. Treated as
	// a stack: allocation pops the most recently freed block, which
	// reproduces the reuse behaviour Page Steering relies on.
	freeLists [memdef.NumMigrateTypes][memdef.MaxOrder][]memdef.PFN
	// mm describes every frame. A free block's head records its order,
	// migration type and free-list index, for coalescing and for
	// removing a buddy from the middle of its list; a PCP page records
	// its cache. The hypervisor records every other owner in it.
	mm memmap.Map

	// pcp is the order-0 per-CPU cache, per migration type.
	pcp [memdef.NumMigrateTypes][]memdef.PFN

	freePages uint64

	met allocMetrics
	led *ledger.Stream
}

// allocMetrics caches the allocator's instrument handles; all nil
// (no-op) until SetMetrics.
type allocMetrics struct {
	allocs    [memdef.MaxOrder]*metrics.Counter
	frees     [memdef.MaxOrder]*metrics.Counter
	splits    *metrics.Counter
	merges    *metrics.Counter
	steals    *metrics.Counter
	freeGauge *metrics.Gauge
	pcpGauge  *metrics.Gauge
}

// SetMetrics registers the allocator's instruments with reg. A nil
// registry leaves the allocator uninstrumented at zero cost.
func (a *Allocator) SetMetrics(reg *metrics.Registry) {
	m := allocMetrics{
		splits:    reg.Counter("buddy_splits_total", "Buddy block halvings performed to satisfy allocations."),
		merges:    reg.Counter("buddy_merges_total", "Buddy coalescing merges performed on free."),
		steals:    reg.Counter("buddy_fallback_steals_total", "Allocations served by stealing a block from the other migration type."),
		freeGauge: reg.Gauge("buddy_free_pages", "Free pages across all orders, including PCP-cached singles."),
		pcpGauge:  reg.Gauge("buddy_pcp_pages", "Order-0 pages cached in the per-CPU pagesets."),
	}
	for o := 0; o < memdef.MaxOrder; o++ {
		m.allocs[o] = reg.Counter("buddy_allocs_total", "Block allocations from the buddy lists, by order.", "order", strconv.Itoa(o))
		m.frees[o] = reg.Counter("buddy_frees_total", "Block frees to the buddy lists, by order.", "order", strconv.Itoa(o))
	}
	a.met = m
	a.met.freeGauge.Set(int64(a.FreePages()))
}

// SetLedger attaches the determinism-ledger stream for allocator
// events. Every buddy-list allocation and free, and every PCP-served
// page, folds its (event, pfn, order) triple into "buddy.alloc"; a
// nil recorder leaves the allocator unledgered at zero cost.
func (a *Allocator) SetLedger(r *ledger.Recorder) {
	a.led = r.Stream("buddy.alloc")
}

// New creates an allocator over pages frames starting at start, with
// the whole range initially free as MIGRATE_MOVABLE max-order blocks
// (the state of a freshly booted host's ZONE_NORMAL before kernel
// allocations carve it up), and the memmap that describes them.
func New(start memdef.PFN, pages uint64) *Allocator {
	a := &Allocator{
		start: start,
		pages: pages,
		mm:    make(memmap.Map, uint64(start)+pages),
	}
	p := uint64(start)
	end := uint64(start) + pages
	// Align the leading edge upward with progressively larger blocks,
	// fill with max-order blocks, then the trailing edge downward.
	for p < end {
		order := memdef.MaxOrder - 1
		for order > 0 && (p&((uint64(1)<<order)-1) != 0 || p+(uint64(1)<<order) > end) {
			order--
		}
		if p+(uint64(1)<<order) > end {
			break
		}
		a.pushFree(memdef.PFN(p), order, memdef.MigrateMovable)
		a.freePages += uint64(1) << order
		p += uint64(1) << order
	}
	return a
}

// Memmap returns the frame descriptors the allocator keeps, which the
// host shares to record every other owner.
func (a *Allocator) Memmap() memmap.Map { return a.mm }

// FreePages returns the total number of free pages, including pages
// cached in the PCP.
func (a *Allocator) FreePages() uint64 {
	n := a.freePages
	for mt := range a.pcp {
		n += uint64(len(a.pcp[mt]))
	}
	return n
}

func (a *Allocator) contains(p memdef.PFN) bool {
	return uint64(p) >= uint64(a.start) && uint64(p) < uint64(a.start)+a.pages
}

// pushFree places a block on its free list and describes its head.
func (a *Allocator) pushFree(p memdef.PFN, order int, mt memdef.MigrateType) {
	list := &a.freeLists[mt][order]
	a.mm[p] = memmap.FreeDesc(order, mt, len(*list))
	*list = append(*list, p)
}

// removeFree unlinks free block head d at p (swap-remove): the list's
// last block takes p's slot, and so p's descriptor.
func (a *Allocator) removeFree(p memdef.PFN, d memmap.Desc) {
	list := &a.freeLists[d.MT()][d.Order()]
	last := len(*list) - 1
	moved := (*list)[last]
	(*list)[d.Index()] = moved
	*list = (*list)[:last]
	a.mm[moved] = d
	a.mm[p] = 0
}

// popFree pops the most recently freed block of (mt, order), or false.
func (a *Allocator) popFree(mt memdef.MigrateType, order int) (memdef.PFN, bool) {
	list := &a.freeLists[mt][order]
	if len(*list) == 0 {
		return 0, false
	}
	p := (*list)[len(*list)-1]
	*list = (*list)[:len(*list)-1]
	a.mm[p] = 0
	return p, true
}

// Alloc allocates a 2^order block of the given migration type straight
// from the buddy lists (bypassing the PCP, as the kernel does for
// order > 0). The returned block's PFN is aligned to its order.
//
// The search order mirrors __rmqueue: exact order on the matching
// list, then progressively larger blocks to split, then fallback
// stealing from the other migration type starting at the largest
// available block.
func (a *Allocator) Alloc(order int, mt memdef.MigrateType) (memdef.PFN, error) {
	if order < 0 || order >= memdef.MaxOrder {
		return 0, fmt.Errorf("buddy: bad order %d", order)
	}
	// Same-migratetype path: smallest sufficient order.
	for o := order; o < memdef.MaxOrder; o++ {
		if p, ok := a.popFree(mt, o); ok {
			a.splitTo(p, o, order, mt)
			a.freePages -= uint64(1) << order
			a.allocHit(p, order)
			return p, nil
		}
	}
	// High-order miss: drain the per-CPU caches and retry, as the
	// kernel's allocation slow path does (drain_all_pages) — cached
	// singles block buddy coalescing and are often exactly what keeps
	// an order-9 block from reassembling.
	if order >= memdef.HugeOrder && (len(a.pcp[0]) > 0 || len(a.pcp[1]) > 0) {
		a.DrainPCP()
		for o := order; o < memdef.MaxOrder; o++ {
			if p, ok := a.popFree(mt, o); ok {
				a.splitTo(p, o, order, mt)
				a.freePages -= uint64(1) << order
				a.allocHit(p, order)
				return p, nil
			}
		}
	}
	// Fallback: steal the largest block of the other type, so that
	// the remainder stays as one large chunk of the stealing type
	// (Linux's anti-fragmentation heuristic).
	other := memdef.MigrateMovable
	if mt == memdef.MigrateMovable {
		other = memdef.MigrateUnmovable
	}
	for o := memdef.MaxOrder - 1; o >= order; o-- {
		if p, ok := a.popFree(other, o); ok {
			a.splitTo(p, o, order, mt) // remainder is re-typed to mt
			a.freePages -= uint64(1) << order
			a.met.steals.Inc()
			a.allocHit(p, order)
			return p, nil
		}
	}
	return 0, ErrOutOfMemory
}

// allocHit records a successful allocation of block p at 2^order.
func (a *Allocator) allocHit(p memdef.PFN, order int) {
	a.met.allocs[order].Inc()
	a.met.freeGauge.Set(int64(a.FreePages()))
	a.led.Fold3(ledBuddyAlloc, uint64(p), uint64(order))
}

// splitTo splits block p down from order `from` to order `to`, putting
// the upper halves back on the free lists of mt.
func (a *Allocator) splitTo(p memdef.PFN, from, to int, mt memdef.MigrateType) {
	for o := from; o > to; o-- {
		half := o - 1
		a.pushFree(p+memdef.PFN(uint64(1)<<half), half, mt)
		a.met.splits.Inc()
	}
}

// Free returns a 2^order block to the free lists under migration type
// mt, coalescing with free buddies of the same type up to the maximum
// order.
func (a *Allocator) Free(p memdef.PFN, order int, mt memdef.MigrateType) {
	if order < 0 || order >= memdef.MaxOrder {
		panic(fmt.Sprintf("buddy: bad free order %d", order))
	}
	if !a.contains(p) || uint64(p)&((uint64(1)<<order)-1) != 0 {
		panic(fmt.Sprintf("buddy: bad free of block %d order %d", p, order))
	}
	a.met.frees[order].Inc()
	a.led.Fold3(ledBuddyFree, uint64(p), uint64(order))
	a.freePages += uint64(1) << order
	a.mm[p] = 0
	for order < memdef.MaxOrder-1 {
		buddyPFN := p ^ memdef.PFN(uint64(1)<<order)
		if !a.contains(buddyPFN) {
			break
		}
		d := a.mm[buddyPFN]
		if d.Kind() != memmap.FreeHead || d.Order() != order || d.MT() != mt {
			break
		}
		a.removeFree(buddyPFN, d)
		if buddyPFN < p {
			p = buddyPFN
		}
		order++
		a.met.merges.Inc()
	}
	a.pushFree(p, order, mt)
	a.met.freeGauge.Set(int64(a.FreePages()))
}

// AllocPage allocates one order-0 page of type mt through the PCP
// cache, refilling a batch from the buddy lists when the cache is
// empty — the path EPT and IOPT page allocations take, and the reason
// the paper's spray must first drink the PCP dry.
func (a *Allocator) AllocPage(mt memdef.MigrateType) (memdef.PFN, error) {
	cache := &a.pcp[mt]
	if len(*cache) == 0 {
		for i := 0; i < pcpBatch; i++ {
			p, err := a.Alloc(0, mt)
			if err != nil {
				break
			}
			a.mm[p] = memmap.PCPDesc(mt)
			*cache = append(*cache, p)
		}
		if len(*cache) == 0 {
			return 0, ErrOutOfMemory
		}
	}
	p := (*cache)[len(*cache)-1]
	*cache = (*cache)[:len(*cache)-1]
	a.mm[p] = 0
	a.led.Fold3(ledBuddyPCPAlloc, uint64(p), uint64(mt))
	a.syncPCPGauge()
	return p, nil
}

// syncPCPGauge mirrors the PCP cache depth into the gauge.
func (a *Allocator) syncPCPGauge() {
	a.met.pcpGauge.Set(int64(len(a.pcp[0]) + len(a.pcp[1])))
}

// FreePage frees one order-0 page of type mt through the PCP cache,
// draining the oldest batch back to the buddy lists past the high
// watermark.
func (a *Allocator) FreePage(p memdef.PFN, mt memdef.MigrateType) {
	a.led.Fold3(ledBuddyPCPFree, uint64(p), uint64(mt))
	a.mm[p] = memmap.PCPDesc(mt)
	cache := &a.pcp[mt]
	*cache = append(*cache, p)
	if len(*cache) > pcpHigh {
		// Take the batch off the cache before freeing it, so FreePages
		// never counts a page twice, and shift the rest down in place:
		// reslicing from the front would strand capacity and make the
		// next append reallocate.
		var batch [pcpBatch]memdef.PFN
		copy(batch[:], *cache)
		*cache = (*cache)[:copy(*cache, (*cache)[pcpBatch:])]
		for _, q := range batch {
			a.Free(q, 0, mt)
		}
	}
	a.syncPCPGauge()
}

// DrainPCP flushes all PCP-cached pages back to the buddy lists.
func (a *Allocator) DrainPCP() {
	for mt := range a.pcp {
		for _, p := range a.pcp[mt] {
			a.Free(p, 0, memdef.MigrateType(mt))
		}
		a.pcp[mt] = nil
	}
	a.syncPCPGauge()
}

// PageTypeInfo returns the full free-block table, the simulation's
// /proc/pagetypeinfo.
func (a *Allocator) PageTypeInfo() [memdef.NumMigrateTypes][memdef.MaxOrder]int {
	var out [memdef.NumMigrateTypes][memdef.MaxOrder]int
	for mt := 0; mt < int(memdef.NumMigrateTypes); mt++ {
		for o := 0; o < memdef.MaxOrder; o++ {
			out[mt][o] = len(a.freeLists[mt][o])
		}
	}
	return out
}

// FreeList returns the (mt, order) free list; Alloc pops its end.
// Read only.
func (a *Allocator) FreeList(mt memdef.MigrateType, order int) []memdef.PFN {
	return a.freeLists[mt][order]
}

// PCP returns the mt per-CPU pageset; AllocPage pops its end. Read only.
func (a *Allocator) PCP(mt memdef.MigrateType) []memdef.PFN { return a.pcp[mt] }

// NoisePages returns the number of free pages held in small-order
// (below order-9) blocks of the given migration type, plus PCP-cached
// pages — the paper's "noise pages" metric from Section 4.2.1 and
// Figure 3: free pages that EPT allocations would consume before
// touching an attacker-released order-9 block.
func (a *Allocator) NoisePages(mt memdef.MigrateType) int {
	n := len(a.pcp[mt])
	for o := 0; o < memdef.HugeOrder; o++ {
		n += len(a.freeLists[mt][o]) << o
	}
	return n
}
