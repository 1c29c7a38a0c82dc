package buddy

import (
	"testing"

	"hyperhammer/internal/memdef"
	"hyperhammer/internal/memmap"
)

// checkFreeHeads holds the memmap to the free lists and PCP caches:
// every listed block's head names its list and slot, every cached
// page its pageset, and no other frame claims either.
func checkFreeHeads(t *testing.T, a *Allocator) {
	t.Helper()
	heads, cached := 0, 0
	for mt := memdef.MigrateType(0); mt < memdef.NumMigrateTypes; mt++ {
		for o := 0; o < memdef.MaxOrder; o++ {
			for i, p := range a.freeLists[mt][o] {
				if d, want := a.mm[p], memmap.FreeDesc(o, mt, i); d != want {
					t.Fatalf("frame %d: free list %v/%d slot %d, memmap %#x, want %#x", p, mt, o, i, d, want)
				}
			}
			heads += len(a.freeLists[mt][o])
		}
		for _, p := range a.pcp[mt] {
			if d := a.mm[p]; d != memmap.PCPDesc(mt) {
				t.Fatalf("frame %d: %v pageset, memmap %#x", p, mt, d)
			}
		}
		cached += len(a.pcp[mt])
	}
	for _, d := range a.mm {
		switch d.Kind() {
		case memmap.FreeHead:
			heads--
		case memmap.PCP:
			cached--
		}
	}
	if heads != 0 || cached != 0 {
		t.Fatalf("memmap holds %d free heads and %d PCP pages the lists do not", -heads, -cached)
	}
}

// FuzzAllocFreeSequence drives the allocator with a byte-encoded
// operation stream and checks the conservation and alignment
// invariants, and the memmap's free heads, after every step. Each byte encodes one operation:
// bit 7 selects alloc/free, bits 0-2 the order, bits 3-4 the
// migratetype selector, bits 5-6 pick which live block to free.
func FuzzAllocFreeSequence(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x03, 0x84, 0x12, 0x90})
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00})
	f.Add(make([]byte, 64))
	// Frees from the middle of a free list, so swap-removes move a
	// block's descriptor to a new slot.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0xA0, 0xC0, 0x80, 0xE0, 0x80})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages = 2048
		a := New(0, pages)
		type block struct {
			pfn   memdef.PFN
			order int
			mt    memdef.MigrateType
		}
		var live []block
		livePages := uint64(0)
		for _, op := range ops {
			order := int(op & 7)
			if order >= memdef.MaxOrder {
				order = memdef.MaxOrder - 1
			}
			mt := memdef.MigrateType((op >> 3) & 1)
			if op&0x80 == 0 {
				p, err := a.Alloc(order, mt)
				if err != nil {
					continue
				}
				if uint64(p)&((1<<order)-1) != 0 {
					t.Fatalf("misaligned order-%d block at %d", order, p)
				}
				if uint64(p)+(1<<order) > pages {
					t.Fatalf("block %d order %d beyond range", p, order)
				}
				live = append(live, block{p, order, mt})
				livePages += 1 << order
			} else if len(live) > 0 {
				idx := int(op>>5&3) % len(live)
				b := live[idx]
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
				a.Free(b.pfn, b.order, b.mt)
				livePages -= 1 << b.order
			}
			if a.FreePages()+livePages != pages {
				t.Fatalf("conservation violated: %d free + %d live != %d",
					a.FreePages(), livePages, pages)
			}
			checkFreeHeads(t, a)
		}
		for _, b := range live {
			a.Free(b.pfn, b.order, b.mt)
		}
		a.DrainPCP()
		checkFreeHeads(t, a)
		if a.FreePages() != pages {
			t.Fatalf("pages lost: %d != %d", a.FreePages(), pages)
		}
	})
}
