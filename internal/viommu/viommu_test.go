package viommu

import (
	"errors"
	"testing"

	"hyperhammer/internal/ept"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/phys"
)

// poolAlloc hands out table frames from a fixed region and counts.
type poolAlloc struct {
	next    memdef.PFN
	allocs  int
	failAll bool
}

func (p *poolAlloc) AllocTable(int) (memdef.PFN, error) {
	if p.failAll {
		return 0, errors.New("injected alloc failure")
	}
	f := p.next
	p.next++
	p.allocs++
	return f, nil
}

// identBackend resolves GPA x to frame x>>12.
type identBackend struct{ fail bool }

func (b identBackend) ResolveGPA(gpa memdef.GPA) (memdef.PFN, error) {
	if b.fail {
		return 0, errors.New("unbacked")
	}
	return memdef.PFN(gpa >> memdef.PageShift), nil
}

func newGroup(t *testing.T) (*Group, *poolAlloc) {
	t.Helper()
	mem := phys.New(256 * memdef.MiB)
	alloc := &poolAlloc{next: 100}
	g, err := NewGroup(mem, alloc, identBackend{})
	if err != nil {
		t.Fatal(err)
	}
	return g, alloc
}

func TestMapTranslate(t *testing.T) {
	g, _ := newGroup(t)
	if err := g.Map(0x1_0000_0000, 7*memdef.PageSize); err != nil {
		t.Fatal(err)
	}
	hpa, err := g.Translate(0x1_0000_0ABC)
	if err != nil {
		t.Fatal(err)
	}
	if want := memdef.HPA(7*memdef.PageSize + 0xABC); hpa != want {
		t.Errorf("Translate = %#x, want %#x", hpa, want)
	}
	if g.Mappings() != 1 {
		t.Errorf("Mappings = %d", g.Mappings())
	}
}

// The attack's core arithmetic: mappings spaced 2 MiB apart each burn
// one fresh leaf IOPT page (Figure 2).
func TestTwoMiBStrideConsumesOneLeafPerMapping(t *testing.T) {
	g, alloc := newGroup(t)
	before := alloc.allocs
	const n = 64
	for i := 0; i < n; i++ {
		iova := memdef.IOVA(0x1_0000_0000 + uint64(i)*memdef.HugePageSize)
		if err := g.Map(iova, 3*memdef.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	grew := alloc.allocs - before
	// n leaf tables plus a handful of upper-level tables.
	if grew < n || grew > n+4 {
		t.Errorf("allocated %d table pages for %d 2MiB-spaced mappings", grew, n)
	}
	if g.iopt.NumTables() != grew+1 { // +1 root from NewGroup
		t.Errorf("IOPT pages = %d, want %d", g.iopt.NumTables(), grew+1)
	}
}

// Densely packed mappings share leaf pages — the reason the attacker
// must space them 2 MiB apart to maximize page consumption.
func TestDenseMappingsShareLeafPages(t *testing.T) {
	g, alloc := newGroup(t)
	before := alloc.allocs
	for i := 0; i < 512; i++ {
		iova := memdef.IOVA(0x2_0000_0000 + uint64(i)*memdef.PageSize)
		if err := g.Map(iova, 3*memdef.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if grew := alloc.allocs - before; grew > 4 {
		t.Errorf("dense mappings allocated %d table pages, want <= 4", grew)
	}
}

// The group takes exactly 65,535 mappings. Spacing them 4 KiB apart
// packs 512 into each leaf page, so filling the budget stays cheap.
func TestMapLimitEnforced(t *testing.T) {
	g, _ := newGroup(t)
	for i := 0; i < 65535; i++ {
		if err := g.Map(memdef.IOVA(i)*memdef.PageSize, 0); err != nil {
			t.Fatalf("mapping %d: %v", i, err)
		}
	}
	over := memdef.IOVA(65535) * memdef.PageSize
	if err := g.Map(over, 0); !errors.Is(err, ErrMapLimit) {
		t.Errorf("mapping 65,536: %v", err)
	}
	// Unmapping frees budget.
	if err := g.Unmap(0); err != nil {
		t.Fatal(err)
	}
	if err := g.Map(over, 0); err != nil {
		t.Errorf("map after unmap: %v", err)
	}
}

func TestUnmapErrors(t *testing.T) {
	g, _ := newGroup(t)
	if err := g.Unmap(0x123000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("unmap absent: %v", err)
	}
}

func TestBackendFailurePropagates(t *testing.T) {
	mem := phys.New(64 * memdef.MiB)
	alloc := &poolAlloc{next: 10}
	g, err := NewGroup(mem, alloc, identBackend{fail: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Map(0, 0); err == nil {
		t.Error("expected resolve failure")
	}
	if g.Mappings() != 0 {
		t.Error("failed map counted")
	}
}

// TestDestroyFreesTables checks that every table page the allocator
// handed out is booked to the group until Destroy, and none after; the
// allocator's owner returns the frames themselves.
func TestDestroyFreesTables(t *testing.T) {
	g, alloc := newGroup(t)
	for i := 0; i < 8; i++ {
		if err := g.Map(memdef.IOVA(i)*memdef.HugePageSize, 0); err != nil {
			t.Fatal(err)
		}
	}
	if g.iopt.NumTables() != alloc.allocs {
		t.Errorf("group books %d of %d tables", g.iopt.NumTables(), alloc.allocs)
	}
	g.Destroy()
	if g.iopt.NumTables() != 0 {
		t.Errorf("Destroy left %d of %d tables booked", g.iopt.NumTables(), alloc.allocs)
	}
}

var _ ept.Allocator = (*poolAlloc)(nil)
