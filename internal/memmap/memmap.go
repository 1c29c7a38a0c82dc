// Package memmap is the simulated host's frame descriptor array, the
// model's struct page: one word per host frame saying what the frame
// is and whose. The buddy allocator and the hypervisor share one Map
// per host and write it only where frames change hands, so "is this
// frame a table page, and whose?" is a stored fact, not a search.
package memmap

import "hyperhammer/internal/memdef"

// Kind is what a frame currently is.
type Kind uint8

// Frame kinds. Allocated, the zero descriptor, is a frame handed out
// with no recorded owner (churn, net-buffer and host-load pages). The
// tail frames of free blocks and of THP chunks keep it too: a block is
// recorded at its head frame only.
const (
	Allocated Kind = iota
	FreeHead       // first frame of a free buddy block
	PCP            // order-0 page in a per-CPU pageset
	Kernel         // page the host kernel holds
	Table          // EPT or IOPT table page
	Guest          // frame backing guest memory
)

// Desc is one frame's descriptor, packed into a word:
//
//	bits 0-2   kind
//	bits 3-6   buddy order (FreeHead) or table level (Table)
//	bit  7     migration type (FreeHead, PCP) or THP head (Guest)
//	bits 8-15  structure (Table): 0 the EPT, g+1 IOPT group g
//	bits 16-31 VM slot (Table, Guest)
//	bits 32-63 free-list index (FreeHead) or guest frame number (Guest)
//
// The accessors read the fields the layout names for the kind.
type Desc uint64

// KernelDesc describes a host kernel page.
const KernelDesc = Desc(Kernel)

// FreeDesc describes the head of a free 2^order block at slot index of
// the (mt, order) free list.
func FreeDesc(order int, mt memdef.MigrateType, index int) Desc {
	return Desc(FreeHead) | Desc(order)<<3 | Desc(mt)<<7 | Desc(index)<<32
}

// PCPDesc describes a page in the mt per-CPU pageset.
func PCPDesc(mt memdef.MigrateType) Desc { return Desc(PCP) | Desc(mt)<<7 }

// TableDesc describes a table page at level of one VM's structure.
func TableDesc(vm, structure, level int) Desc {
	return Desc(Table) | Desc(level)<<3 | Desc(structure)<<8 | Desc(vm)<<16
}

// GuestDesc describes the frame backing guest frame gfn of a VM; huge
// marks a THP chunk's head frame, which stands for all 512.
func GuestDesc(vm int, gfn memdef.GFN, huge bool) Desc {
	d := Desc(Guest) | Desc(vm)<<16 | Desc(gfn)<<32
	if huge {
		d |= 1 << 7
	}
	return d
}

func (d Desc) Kind() Kind             { return Kind(d & 7) }
func (d Desc) Order() int             { return int(d>>3) & 0xF }
func (d Desc) Level() int             { return d.Order() }
func (d Desc) MT() memdef.MigrateType { return memdef.MigrateType(d>>7) & 1 }
func (d Desc) Huge() bool             { return d>>7&1 != 0 }
func (d Desc) Structure() int         { return int(d>>8) & 0xFF }
func (d Desc) VM() int                { return int(d>>16) & 0xFFFF }
func (d Desc) Index() int             { return int(d >> 32) }
func (d Desc) GFN() memdef.GFN        { return memdef.GFN(d >> 32) }

// Map holds one descriptor per host frame, indexed by PFN.
type Map []Desc
