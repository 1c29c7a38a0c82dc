package phys

import (
	"encoding/binary"
	"testing"

	"hyperhammer/internal/memdef"
)

// FuzzFrameForms decodes its input into a sequence of fills, stride
// fills, word writes, bit flips and reads on an eight-frame memory and
// holds the store to a flat word array after every operation: every
// word, PageUniform, PageStride (true exactly for frames whose last
// fill was a stride fill and that no write has changed since) and
// MaterializedFrames (a frame counts from its first write that changes
// a word, or its stride fill, until its next FillWord).
func FuzzFrameForms(f *testing.F) {
	// Each op is a kind byte, a frame byte, two word-index bytes and,
	// for writes, a value selector (see value below); flips take a bit
	// byte instead.
	f.Add([]byte{
		1, 3, 0, 0, 4, 7, 0, 0, 0, 0, 0x20, 0, 0, // stride fill of frame 3 from a literal entry
		3, 3, 0, 7, 2, // rewrite word 7 with its progression value: stays stride
		6, 3, 0, 7, // read it
		3, 3, 1, 0, 0, // zero word 256: breaks the progression
		6, 3, 1, 0,
		0, 3, 0, 0, 1, // fill the frame back to pattern form
		6, 3, 0, 0,
	})
	f.Add([]byte{
		1, 0, 0, 0, 1, // stride fill of frame 0 from all-ones
		4, 0, 0, 9, 12, // legal flip of word 9, bit 12
		5, 0, 0, 9, 12, // a flip of the same bit in the illegal direction
		6, 0, 0, 9,
		1, 1, 0, 0, 3, // stride fill of frame 1 from the word it holds
		5, 1, 1, 1, 40, // an illegal flip into the stride frame: refused
		2, 1, 1, 255, 3, // SetWord of the word held: stays stride
		6, 1, 1, 255,
	})
	f.Add([]byte{
		3, 4, 0, 3, 4, 0, 0, 0, 0, 0, 0, 0, 1, // one word of frame 4: sparse
		1, 4, 0, 0, 2, // stride fill over the sparse frame
		6, 4, 0, 3,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const pages = 8
		m := New(pages * memdef.PageSize)
		ref := make([]uint64, pages*wordsPerPage)
		mat := make([]bool, pages)
		stride := make([]bool, pages)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// value picks zero, all-ones, the frame's progression word at
		// idx, the word held, or a literal from the next eight bytes.
		value := func(p, idx int) uint64 {
			switch next() % 5 {
			case 0:
				return 0
			case 1:
				return ^uint64(0)
			case 2:
				return ref[p*wordsPerPage] + uint64(idx)<<memdef.PageShift
			case 3:
				return ref[p*wordsPerPage+idx]
			}
			var buf [8]byte
			for i := range buf {
				buf[i] = next()
			}
			return binary.LittleEndian.Uint64(buf[:])
		}
		write := func(w int, v uint64) {
			if ref[w] != v {
				mat[w/wordsPerPage] = true
				stride[w/wordsPerPage] = false
			}
			ref[w] = v
		}
		for op := 0; len(data) > 0 && op < 256; op++ {
			kind := next() % 7
			p := int(next()) % pages
			idx := int(uint16(next())<<8|uint16(next())) % wordsPerPage
			w := p*wordsPerPage + idx
			switch kind {
			case 0:
				v := value(p, idx)
				m.FillWord(memdef.PFN(p), v)
				for i := range wordsPerPage {
					ref[p*wordsPerPage+i] = v
				}
				mat[p], stride[p] = false, false
			case 1:
				w0 := value(p, idx)
				m.FillStride(memdef.PFN(p), w0)
				for i := range wordsPerPage {
					ref[p*wordsPerPage+i] = w0 + uint64(i)<<memdef.PageShift
				}
				mat[p], stride[p] = true, true
			case 2:
				v := value(p, idx)
				m.SetWord(memdef.HPA(w*8), v)
				write(w, v)
			case 3:
				v := value(p, idx)
				m.SetPageWord(memdef.PFN(p), idx, v)
				write(w, v)
			case 4, 5:
				bit := uint(next()) % 64
				cur := ref[w] >> bit & 1
				legal := kind == 4
				oneToZero := (cur == 1) == legal
				if got := m.FlipBit(memdef.HPA(w*8)+memdef.HPA(bit/8), bit%8, oneToZero); got != legal {
					t.Fatalf("op %d: FlipBit(word %d, bit %d) = %v, want %v", op, w, bit, got, legal)
				}
				if legal {
					write(w, ref[w]^1<<bit)
				}
			case 6:
				if got := m.Word(memdef.HPA(w * 8)); got != ref[w] {
					t.Fatalf("op %d: Word(word %d) = %#x, want %#x", op, w, got, ref[w])
				}
			}
			for q := range pages {
				first, same := ref[q*wordsPerPage], true
				for i := range wordsPerPage {
					v := ref[q*wordsPerPage+i]
					if got := m.PageWord(memdef.PFN(q), i); got != v {
						t.Fatalf("op %d (kind %d): frame %d word %d = %#x, want %#x", op, kind, q, i, got, v)
					}
					same = same && v == first
				}
				if u, ok := m.PageUniform(memdef.PFN(q)); ok != same || ok && u != first {
					t.Fatalf("op %d: PageUniform(%d) = %#x, %v; want uniform %v", op, q, u, ok, same)
				}
				if w0, ok := m.PageStride(memdef.PFN(q)); ok != stride[q] || ok && w0 != first {
					t.Fatalf("op %d: PageStride(%d) = %#x, %v; want %v", op, q, w0, ok, stride[q])
				}
			}
			want := 0
			for _, b := range mat {
				if b {
					want++
				}
			}
			if got := m.MaterializedFrames(); got != want {
				t.Fatalf("op %d (kind %d): MaterializedFrames = %d, want %d", op, kind, got, want)
			}
		}
	})
}
