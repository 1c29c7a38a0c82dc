package phys

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"hyperhammer/internal/memdef"
)

// Property: the content store behaves exactly like a flat word array
// under any interleaving of word writes, page fills, stride fills and
// bit flips, and counts a frame as materialized from its first write
// that changes a word, or its stride fill, until its next fill. Word
// positions favour a few hot indices and the last stride-filled page,
// and values a small pool, so frames often take a write of the word
// they already hold, the same word twice, a second distinct word, and
// flips inside and outside their one overridden word or their
// progression — every path between the pattern, sparse, full and
// stride forms. PageStride must report exactly the frames whose last
// fill was a stride fill and that no write has changed since.
func TestPropertyMatchesFlatArray(t *testing.T) {
	const size = 256 * memdef.KiB
	const words = size / 8
	const pages = size / memdef.PageSize
	f := func(seed uint64, opsRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		m := New(size)
		ref := make([]uint64, words)
		mat := make([]bool, pages)
		stride := make([]bool, pages)
		hot := 0 // the last stride-filled page
		pool := []uint64{0, 1, ^uint64(0), 0x5555_5555_5555_5555, rng.Uint64()}
		value := func() uint64 {
			if rng.IntN(4) == 0 {
				return rng.Uint64()
			}
			return pool[rng.IntN(len(pool))]
		}
		page := func() int {
			if rng.IntN(3) == 0 {
				return hot
			}
			return rng.IntN(pages)
		}
		word := func() (p, idx int) {
			p = page()
			if rng.IntN(4) == 0 {
				return p, rng.IntN(512)
			}
			return p, []int{0, 3, 511}[rng.IntN(3)]
		}
		write := func(w int, v uint64) {
			if ref[w] != v {
				mat[w/512] = true
				stride[w/512] = false
			}
			ref[w] = v
		}
		flip := func(legal bool) bool {
			p, idx := word()
			w := p*512 + idx
			bitPos := uint(rng.IntN(64))
			addr := memdef.HPA(w*8) + memdef.HPA(bitPos/8)
			cur := (ref[w] >> bitPos) & 1
			oneToZero := (cur == 1) == legal
			if m.FlipBit(addr, bitPos%8, oneToZero) != legal {
				return false // legal flip refused, or illegal one applied
			}
			if legal {
				write(w, ref[w]^1<<bitPos)
			}
			return true
		}
		ops := int(opsRaw)%500 + 50
		for i := 0; i < ops; i++ {
			switch rng.IntN(10) {
			case 0: // word write by address
				p, idx := word()
				v := value()
				m.SetWord(memdef.HPA((p*512+idx)*8), v)
				write(p*512+idx, v)
			case 1: // word write by page and index
				p, idx := word()
				v := value()
				m.SetPageWord(memdef.PFN(p), idx, v)
				write(p*512+idx, v)
			case 2: // rewrite the word already held
				p, idx := word()
				m.SetPageWord(memdef.PFN(p), idx, ref[p*512+idx])
			case 3: // page fill
				p := page()
				v := value()
				m.FillWord(memdef.PFN(p), v)
				for w := p * 512; w < (p+1)*512; w++ {
					ref[w] = v
				}
				mat[p], stride[p] = false, false
			case 4: // bit flip in a legal direction
				if !flip(true) {
					return false
				}
			case 5: // bit flip in the illegal direction: must refuse
				if !flip(false) {
					return false
				}
			case 6: // page-level reads
				p, idx := word()
				if m.PageWord(memdef.PFN(p), idx) != ref[p*512+idx] {
					return false
				}
				w, uniform := m.PageUniform(memdef.PFN(p))
				first, same := ref[p*512], true
				for _, v := range ref[p*512 : (p+1)*512] {
					same = same && v == first
				}
				if uniform != same || uniform && w != first {
					return false
				}
				if w0, ok := m.PageStride(memdef.PFN(p)); ok != stride[p] || ok && w0 != first {
					return false
				}
			case 7: // the same word written twice
				p, idx := word()
				for range 2 {
					v := value()
					m.SetPageWord(memdef.PFN(p), idx, v)
					write(p*512+idx, v)
				}
			case 8: // stride fill, as a split leaf is written
				p := rng.IntN(pages)
				w0 := value()
				m.FillStride(memdef.PFN(p), w0)
				for i := range 512 {
					ref[p*512+i] = w0 + uint64(i)<<memdef.PageShift
				}
				mat[p], stride[p], hot = true, true, p
			case 9: // a write of the progression's own next word
				p, idx := word()
				v := ref[p*512] + uint64(idx)<<memdef.PageShift
				m.SetWord(memdef.HPA((p*512+idx)*8), v)
				write(p*512+idx, v)
			}
			want := 0
			for _, b := range mat {
				if b {
					want++
				}
			}
			if m.MaterializedFrames() != want {
				return false
			}
			// Spot-check a few random words.
			for k := 0; k < 4; k++ {
				w := rng.IntN(words)
				if m.Word(memdef.HPA(w*8)) != ref[w] {
					return false
				}
			}
		}
		// Full sweep at the end.
		for w := 0; w < words; w++ {
			if m.Word(memdef.HPA(w*8)) != ref[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: PageUniform agrees with a word-by-word scan.
func TestPropertyPageUniform(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		m := New(64 * memdef.KiB)
		p := memdef.PFN(rng.IntN(16))
		v := rng.Uint64()
		m.FillWord(p, v)
		if rng.IntN(2) == 0 {
			m.SetPageWord(p, rng.IntN(512), v^1)
		}
		w, uniform := m.PageUniform(p)
		first := m.PageWord(p, 0)
		same := true
		for i := 1; i < 512; i++ {
			if m.PageWord(p, i) != first {
				same = false
				break
			}
		}
		if uniform != same {
			return false
		}
		return !uniform || w == first
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
