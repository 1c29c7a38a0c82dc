// Package viommu models the virtual IOMMU that KVM/QEMU expose to VMs
// with assigned PCI devices (Sections 2.5, 2.6, 4.2.1). When the guest
// creates a DMA mapping from an I/O virtual address to one of its
// pages, QEMU installs a shadow mapping in host IOMMU page tables
// (IOPTs). Each IOPT page is an order-0 MIGRATE_UNMOVABLE host page —
// which is exactly the currency the attacker spends to exhaust the
// host's small-order unmovable free blocks (Figure 2).
package viommu

import (
	"errors"
	"fmt"

	"hyperhammer/internal/ept"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/phys"
)

// mapLimit is vIOMMU's cap of 65,535 mappings per IOMMU group
// (Section 4.2.1).
const mapLimit = 65535

// Errors returned by group operations.
var (
	// ErrMapLimit reports that the group's mapping budget is spent.
	ErrMapLimit = errors.New("viommu: mapping limit reached")
	// ErrNotMapped reports an unmap of an absent mapping.
	ErrNotMapped = errors.New("viommu: iova not mapped")
)

// Backend resolves guest pages for DMA. The hypervisor implements it:
// resolving pins the page (VFIO behaviour), though in this model VM
// memory is already pinned unmovable at creation.
type Backend interface {
	// ResolveGPA returns the host frame currently backing the guest
	// page at gpa.
	ResolveGPA(gpa memdef.GPA) (memdef.PFN, error)
}

// Group is one IOMMU group assigned to a VM (one passed-through
// device, or several behind the same group).
type Group struct {
	iopt     *ept.Table
	backend  Backend
	mappings int
}

// SetMetrics instruments the group's shadow IOPT; its walks, splits
// and table pages aggregate into the shared ept_* series.
func (g *Group) SetMetrics(reg *metrics.Registry) { g.iopt.SetMetrics(reg) }

// SetLedger folds the shadow IOPT's mutations into the host's shared
// "ept.mutation" determinism stream.
func (g *Group) SetLedger(s *ledger.Stream) { g.iopt.SetLedger(s) }

// NewGroup creates an IOMMU group whose shadow IOPT pages come from
// alloc (the host's unmovable order-0 table-page allocator).
func NewGroup(mem *phys.Memory, alloc ept.Allocator, backend Backend) (*Group, error) {
	iopt, err := ept.New(mem, alloc)
	if err != nil {
		return nil, fmt.Errorf("viommu: %w", err)
	}
	return &Group{iopt: iopt, backend: backend}, nil
}

// Map installs a 4 KiB DMA mapping iova -> (the host frame backing)
// gpa. Every distinct 2 MiB-aligned IOVA window touched for the first
// time costs one fresh host IOPT leaf page, plus upper-level tables as
// needed.
func (g *Group) Map(iova memdef.IOVA, gpa memdef.GPA) error {
	if g.mappings >= mapLimit {
		return ErrMapLimit
	}
	frame, err := g.backend.ResolveGPA(gpa)
	if err != nil {
		return fmt.Errorf("viommu: resolving gpa %#x: %w", gpa, err)
	}
	if err := g.iopt.Map4K(uint64(iova), frame, ept.PermRW); err != nil {
		return fmt.Errorf("viommu: mapping iova %#x: %w", iova, err)
	}
	g.mappings++
	return nil
}

// Unmap removes the mapping at iova. IOPT pages are not reclaimed on
// unmap (matching Linux IOMMU drivers, which keep table pages around).
func (g *Group) Unmap(iova memdef.IOVA) error {
	if _, err := g.iopt.Unmap(uint64(iova)); err != nil {
		return fmt.Errorf("%w: %#x", ErrNotMapped, iova)
	}
	g.mappings--
	return nil
}

// Translate performs the device-side IOVA walk, returning the host
// physical address a DMA to iova would hit.
func (g *Group) Translate(iova memdef.IOVA) (memdef.HPA, error) {
	tr, err := g.iopt.Translate(uint64(iova))
	if err != nil {
		return 0, err
	}
	return tr.HPA, nil
}

// Mappings returns the number of live mappings.
func (g *Group) Mappings() int { return g.mappings }

// TableCountByLevel returns the host pages this group's IOMMU page
// tables consume, by level — the attacker's lever on the unmovable
// free lists.
func (g *Group) TableCountByLevel() ept.LevelCounts { return g.iopt.TableCountByLevel() }

// Destroy retires the group's IOPT bookkeeping. The host, which
// recorded each IOPT page's owner when it allocated it, frees them.
func (g *Group) Destroy() { g.iopt.Destroy() }
