// Package xenlite models the Xen memory-management behaviour the paper
// analyses in Section 6: Xen's domain heap is a single buddy pool with
// no migration types, a guest can voluntarily return pages with the
// XENMEM_decrease_reservation hypercall (free_domheap_pages), and
// p2m/EPT table pages are later allocated from the very same pool
// (alloc_domheap_pages) — so Page Steering needs no free-list
// exhaustion at all, supporting the paper's conclusion that steering
// "may be even easier on Xen than on KVM".
package xenlite

import (
	"errors"
	"fmt"
	"sort"

	"hyperhammer/internal/memdef"
)

// ErrOutOfMemory reports domheap exhaustion.
var ErrOutOfMemory = errors.New("xenlite: out of domain heap memory")

// Heap is Xen's domain heap: buddy free lists with no migration types.
// Freed blocks go to the head of their order's list and allocations
// prefer the smallest sufficient order — the properties the Xen
// steering variant relies on.
type Heap struct {
	freeLists [memdef.MaxOrder][]memdef.PFN
	free      map[memdef.PFN]int // block -> order
	pages     uint64
	freeCount uint64
}

// NewHeap builds a heap over a frame range, fully free.
func NewHeap(start memdef.PFN, pages uint64) *Heap {
	h := &Heap{free: make(map[memdef.PFN]int), pages: pages}
	p := uint64(start)
	end := uint64(start) + pages
	for p < end {
		order := memdef.MaxOrder - 1
		for order > 0 && (p&((uint64(1)<<order)-1) != 0 || p+(uint64(1)<<order) > end) {
			order--
		}
		if p+(uint64(1)<<order) > end {
			break
		}
		h.push(memdef.PFN(p), order)
		h.freeCount += uint64(1) << order
		p += uint64(1) << order
	}
	return h
}

func (h *Heap) push(p memdef.PFN, order int) {
	h.freeLists[order] = append(h.freeLists[order], p)
	h.free[p] = order
}

func (h *Heap) pop(order int) (memdef.PFN, bool) {
	list := &h.freeLists[order]
	if len(*list) == 0 {
		return 0, false
	}
	p := (*list)[len(*list)-1]
	*list = (*list)[:len(*list)-1]
	delete(h.free, p)
	return p, true
}

func (h *Heap) remove(p memdef.PFN) {
	order := h.free[p]
	list := &h.freeLists[order]
	for i, q := range *list {
		if q == p {
			(*list)[i] = (*list)[len(*list)-1]
			*list = (*list)[:len(*list)-1]
			break
		}
	}
	delete(h.free, p)
}

// Alloc returns a 2^order block (alloc_domheap_pages).
func (h *Heap) Alloc(order int) (memdef.PFN, error) {
	if order < 0 || order >= memdef.MaxOrder {
		return 0, fmt.Errorf("xenlite: bad order %d", order)
	}
	for o := order; o < memdef.MaxOrder; o++ {
		if p, ok := h.pop(o); ok {
			for split := o; split > order; split-- {
				h.push(p+memdef.PFN(uint64(1)<<(split-1)), split-1)
			}
			h.freeCount -= uint64(1) << order
			return p, nil
		}
	}
	return 0, ErrOutOfMemory
}

// Free returns a block (free_domheap_pages), coalescing with buddies.
func (h *Heap) Free(p memdef.PFN, order int) {
	h.freeCount += uint64(1) << order
	for order < memdef.MaxOrder-1 {
		buddy := p ^ memdef.PFN(uint64(1)<<order)
		if o, ok := h.free[buddy]; !ok || o != order {
			break
		}
		h.remove(buddy)
		if buddy < p {
			p = buddy
		}
		order++
	}
	h.push(p, order)
}

// FreePages returns the total free pages.
func (h *Heap) FreePages() uint64 { return h.freeCount }

// Domain is one Xen guest with its memory reservation.
type Domain struct {
	heap *Heap
	// backing maps 2 MiB guest chunks to their frames.
	backing map[memdef.GPA]memdef.PFN
	// p2m records allocated p2m (EPT-equivalent) table pages.
	p2m []memdef.PFN
}

// CreateDomain reserves memSize bytes of 2 MiB superpages for a guest.
func (h *Heap) CreateDomain(memSize uint64) (*Domain, error) {
	if memSize%memdef.HugePageSize != 0 {
		return nil, fmt.Errorf("xenlite: domain size %#x not 2 MiB aligned", memSize)
	}
	d := &Domain{heap: h, backing: make(map[memdef.GPA]memdef.PFN)}
	for gpa := memdef.GPA(0); uint64(gpa) < memSize; gpa += memdef.HugePageSize {
		base, err := h.Alloc(memdef.HugeOrder)
		if err != nil {
			d.Destroy()
			return nil, err
		}
		d.backing[gpa] = base
	}
	return d, nil
}

// DecreaseReservation is the XENMEM_decrease_reservation hypercall: a
// (possibly malicious) guest voluntarily returns the 2 MiB chunk at
// gpa to the shared domain heap. Returns the freed base frame as the
// hypervisor-side instrumentation (the paper's released-PFN log).
func (d *Domain) DecreaseReservation(gpa memdef.GPA) (memdef.PFN, error) {
	base, ok := d.backing[memdef.HugeBase(gpa)]
	if !ok {
		return 0, fmt.Errorf("xenlite: chunk %#x not reserved", gpa)
	}
	delete(d.backing, memdef.HugeBase(gpa))
	d.heap.Free(base, memdef.HugeOrder)
	return base, nil
}

// AllocP2M allocates one p2m table page for the domain — from the same
// heap the guest just released into, with no migration-type wall in
// between.
func (d *Domain) AllocP2M() (memdef.PFN, error) {
	p, err := d.heap.Alloc(0)
	if err != nil {
		return 0, err
	}
	d.p2m = append(d.p2m, p)
	return p, nil
}

// Destroy returns all domain memory to the heap.
func (d *Domain) Destroy() {
	chunks := make([]memdef.GPA, 0, len(d.backing))
	for gpa := range d.backing {
		chunks = append(chunks, gpa)
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
	for _, gpa := range chunks {
		d.heap.Free(d.backing[gpa], memdef.HugeOrder)
		delete(d.backing, gpa)
	}
	for _, p := range d.p2m {
		d.heap.Free(p, 0)
	}
	d.p2m = nil
}

// SteeringReuse measures the Xen steering experiment: release the
// given chunks from the domain, then allocate p2mPages table pages and
// report how many landed on released frames. The KVM equivalent needs
// vIOMMU exhaustion first; here the released blocks are reachable
// immediately, which is the Section 6 claim this module exists to
// check.
func (d *Domain) SteeringReuse(chunks []memdef.GPA, p2mPages int) (released, reused int, err error) {
	releasedFrames := make(map[memdef.PFN]bool)
	for _, gpa := range chunks {
		base, err := d.DecreaseReservation(gpa)
		if err != nil {
			return 0, 0, err
		}
		for i := memdef.PFN(0); i < memdef.PagesPerHuge; i++ {
			releasedFrames[base+i] = true
		}
		released += memdef.PagesPerHuge
	}
	for i := 0; i < p2mPages; i++ {
		p, err := d.AllocP2M()
		if err != nil {
			return released, reused, err
		}
		if releasedFrames[p] {
			reused++
		}
	}
	return released, reused, nil
}
