package buddy

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"hyperhammer/internal/memdef"
)

// Property: under any interleaving of allocations and frees, the
// allocator never double-allocates a page, never loses a page, keeps
// blocks aligned, and fully coalesces once everything is freed.
func TestPropertyAllocFreeInvariants(t *testing.T) {
	const pages = 8192
	f := func(seed uint64, opsRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xABCDEF))
		a := New(0, pages)
		type block struct {
			pfn   memdef.PFN
			order int
			mt    memdef.MigrateType
		}
		var live []block
		owned := make(map[memdef.PFN]bool)
		ops := int(opsRaw)%400 + 50
		for i := 0; i < ops; i++ {
			if rng.IntN(2) == 0 || len(live) == 0 {
				order := rng.IntN(6)
				mt := memdef.MigrateType(rng.IntN(int(memdef.NumMigrateTypes)))
				p, err := a.Alloc(order, mt)
				if err != nil {
					continue
				}
				// Alignment.
				if uint64(p)&((1<<order)-1) != 0 {
					t.Logf("misaligned order-%d block at %d", order, p)
					return false
				}
				// No overlap with any owned page.
				for q := p; q < p+memdef.PFN(1<<order); q++ {
					if owned[q] {
						t.Logf("page %d double-allocated", q)
						return false
					}
					owned[q] = true
				}
				live = append(live, block{p, order, mt})
			} else {
				j := rng.IntN(len(live))
				b := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				for q := b.pfn; q < b.pfn+memdef.PFN(1<<b.order); q++ {
					delete(owned, q)
				}
				a.Free(b.pfn, b.order, b.mt)
			}
			// Conservation: free + owned == total.
			if a.FreePages()+uint64(len(owned)) != pages {
				t.Logf("page conservation violated: %d free + %d owned != %d",
					a.FreePages(), len(owned), pages)
				return false
			}
		}
		// Free everything; the allocator must coalesce back to
		// max-order blocks.
		for _, b := range live {
			a.Free(b.pfn, b.order, b.mt)
		}
		a.DrainPCP()
		if a.FreePages() != pages {
			t.Logf("final free pages %d != %d", a.FreePages(), pages)
			return false
		}
		total := 0
		info := a.PageTypeInfo()
		for mt := range info {
			for o, n := range info[mt] {
				total += n << o
			}
		}
		return total == pages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the PCP layer never changes the total page count and
// always returns pages it was given. Each step allocates or frees a
// burst of up to 64 pages, so the cache crosses its high watermark and
// drains.
func TestPropertyPCPConservation(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		a := New(0, 4096)
		var held []memdef.PFN
		ops := int(opsRaw)%300 + 20
		for i := 0; i < ops; i++ {
			burst := rng.IntN(64) + 1
			alloc := rng.IntN(2) == 0
			for k := 0; k < burst; k++ {
				if alloc {
					if p, err := a.AllocPage(memdef.MigrateUnmovable); err == nil {
						held = append(held, p)
					}
				} else if len(held) > 0 {
					j := rng.IntN(len(held))
					a.FreePage(held[j], memdef.MigrateUnmovable)
					held[j] = held[len(held)-1]
					held = held[:len(held)-1]
				}
				if a.FreePages()+uint64(len(held)) != 4096 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
