package buddy

import (
	"testing"

	"hyperhammer/internal/memdef"
)

// FuzzAllocFreeSequence drives the allocator with a byte-encoded
// operation stream and checks the conservation and alignment
// invariants after every step. Each byte encodes one operation:
// bit 7 selects alloc/free, bits 0-2 the order, bits 3-4 the
// migratetype selector, bits 5-6 pick which live block to free.
func FuzzAllocFreeSequence(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x03, 0x84, 0x12, 0x90})
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00})
	f.Add(make([]byte, 64))
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
		}
		for _, b := range live {
			a.Free(b.pfn, b.order, b.mt)
		}
		a.DrainPCP()
		if a.FreePages() != pages {
			t.Fatalf("pages lost: %d != %d", a.FreePages(), pages)
		}
	})
}
