// Package phys is the content store of the simulated host's physical
// memory. It tracks what every 4 KiB frame currently holds, at 64-bit
// word granularity, without materializing bytes for frames that hold
// a uniform or per-page pattern — which is what lets the simulation
// model a 16 GiB host in a few hundred megabytes.
//
// Rowhammer bit flips are applied here: a flip mutates whatever the
// victim frame currently holds, whether that is attacker data, an EPT
// entry, an IOPT entry or another VM's memory. Nothing in the store
// knows or cares who owns a frame; ownership is the hypervisor's
// problem, and violating it through flips is the attack.
package phys

import (
	"fmt"

	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
)

// wordsPerPage is the number of 64-bit words in one frame.
const wordsPerPage = memdef.PageSize / 8

// Frame forms. The zero form is pattern, so a freshly created memory
// is all-zero for free.
const (
	// formPattern: every word of the page equals the frame's pattern.
	formPattern uint8 = iota
	// formSparse: every word equals the pattern except word idx,
	// which is words[slot] — the shape of a fresh IOPT or EPT leaf
	// holding one entry, and of a pattern page after one bit flip.
	formSparse
	// formFull: the page's 512 words are pages[slot].
	formFull
	// formStride: word i equals the pattern plus i<<12 — the shape of
	// a split 2 MiB leaf, whose 512 entries map consecutive frames
	// with one permission.
	formStride
)

// frame is the per-frame content record: 16 bytes and no pointer, so
// the collector never scans the frame array. A frame turns sparse on
// its first write that changes a word, full on a write that changes a
// second word, stride only through FillStride, and back to pattern
// only through FillWord. A write that changes a word of a stride frame
// makes it full.
type frame struct {
	pattern uint64
	slot    uint32
	idx     uint16
	form    uint8
}

// Memory is the physical memory content store.
type Memory struct {
	frames []frame
	size   uint64

	// materialized counts sparse, full and stride frames, for resource
	// diagnostics and the census.
	materialized int

	// words holds sparse frames' overridden words and pages full
	// frames' contents, each indexed by the frame's slot; freeWords
	// and freePages list the slots FillWord released, reused first.
	// pages grows one separately allocated page at a time, so growing
	// it never copies a page.
	words     []uint64
	freeWords []uint32
	pages     []*[wordsPerPage]uint64
	freePages []uint32

	led *ledger.Stream
}

// New creates a zeroed physical memory of the given byte size, which
// must be a positive multiple of the page size.
func New(size uint64) *Memory {
	if size == 0 || size%memdef.PageSize != 0 {
		panic(fmt.Sprintf("phys: bad memory size %#x", size))
	}
	return &Memory{
		frames: make([]frame, size/memdef.PageSize),
		size:   size,
	}
}

// SetLedger attaches the determinism-ledger stream for applied bit
// flips. Each FlipBit call folds (address, bit, changed) into
// "phys.flip"; a nil recorder leaves the store unledgered at zero
// cost.
func (m *Memory) SetLedger(r *ledger.Recorder) {
	m.led = r.Stream("phys.flip")
}

// Frames returns the number of 4 KiB frames.
func (m *Memory) Frames() int { return len(m.frames) }

// MaterializedFrames returns how many frames hold explicit content
// (sparse, full or stride), a proxy for the simulation's real memory
// footprint. A frame counts from its first write that changes a word,
// or from a FillStride, until its next FillWord.
func (m *Memory) MaterializedFrames() int { return m.materialized }

func (m *Memory) frameOf(a memdef.HPA) *frame {
	p := memdef.PFNOf(a)
	if uint64(p) >= uint64(len(m.frames)) {
		panic(fmt.Sprintf("phys: address %#x outside %d-frame memory", a, len(m.frames)))
	}
	return &m.frames[p]
}

// Word returns the 64-bit word at 8-byte-aligned address a.
func (m *Memory) Word(a memdef.HPA) uint64 {
	if a&7 != 0 {
		panic(fmt.Sprintf("phys: unaligned word read at %#x", a))
	}
	return m.word(m.frameOf(a), int(memdef.PageOffset(a)/8))
}

// SetWord writes the 64-bit word at 8-byte-aligned address a.
func (m *Memory) SetWord(a memdef.HPA, v uint64) {
	if a&7 != 0 {
		panic(fmt.Sprintf("phys: unaligned word write at %#x", a))
	}
	m.setWord(m.frameOf(a), int(memdef.PageOffset(a)/8), v)
}

func (m *Memory) word(f *frame, idx int) uint64 {
	if f.form == formFull {
		return m.pages[f.slot][idx]
	}
	if f.form == formPattern {
		return f.pattern
	}
	if f.form == formStride {
		return f.pattern + uint64(idx)<<memdef.PageShift
	}
	if int(f.idx) == idx {
		return m.words[f.slot]
	}
	return f.pattern
}

func (m *Memory) setWord(f *frame, idx int, v uint64) {
	switch {
	case f.form == formFull:
		m.pages[f.slot][idx] = v
	case f.form == formSparse && int(f.idx) == idx:
		m.words[f.slot] = v
	case f.form == formPattern:
		if v != f.pattern {
			f.slot, f.idx, f.form = m.takeWord(), uint16(idx), formSparse
			m.words[f.slot] = v
			m.materialized++
		}
	case v != m.word(f, idx):
		// A second changed word of a sparse frame, or a word off a
		// stride frame's progression.
		m.promote(f)
		m.pages[f.slot][idx] = v
	}
}

// takeWord returns a free slot of the sparse-word slab.
func (m *Memory) takeWord() uint32 {
	if n := len(m.freeWords); n > 0 {
		s := m.freeWords[n-1]
		m.freeWords = m.freeWords[:n-1]
		return s
	}
	m.words = append(m.words, 0)
	return uint32(len(m.words) - 1)
}

// promote turns a sparse or stride frame full: a page slot holding
// the frame's words, with a sparse frame's word slot released.
func (m *Memory) promote(f *frame) {
	var slot uint32
	if n := len(m.freePages); n > 0 {
		slot = m.freePages[n-1]
		m.freePages = m.freePages[:n-1]
	} else {
		slot = uint32(len(m.pages))
		m.pages = append(m.pages, new([wordsPerPage]uint64))
	}
	pg := m.pages[slot]
	if f.form == formStride {
		for i := range pg {
			pg[i] = f.pattern + uint64(i)<<memdef.PageShift
		}
	} else {
		for i := range pg {
			pg[i] = f.pattern
		}
		pg[f.idx] = m.words[f.slot]
		m.freeWords = append(m.freeWords, f.slot)
	}
	f.slot, f.form = slot, formFull
}

// FillWord sets every word of frame p to v, returning the frame to
// pattern form and releasing its slot. A frame already in pattern form
// takes one branch.
func (m *Memory) FillWord(p memdef.PFN, v uint64) {
	if uint64(p) >= uint64(len(m.frames)) {
		panic(fmt.Sprintf("phys: frame %d outside memory", p))
	}
	f := &m.frames[p]
	if f.form != formPattern {
		switch f.form {
		case formSparse:
			m.freeWords = append(m.freeWords, f.slot)
		case formFull:
			m.freePages = append(m.freePages, f.slot)
		}
		m.materialized--
	}
	*f = frame{pattern: v}
}

// FillStride sets word i of frame p to w0 + i<<12, for i in 0..511,
// in one record: a split 2 MiB leaf whose entries map 512 consecutive
// frames with one permission. The frame counts as materialized, as it
// would after the 512 writes.
func (m *Memory) FillStride(p memdef.PFN, w0 uint64) {
	m.FillWord(p, w0)
	m.frames[p].form = formStride
	m.materialized++
}

// PageStride reports whether frame p is in stride form, as FillStride
// left it, and its word 0. A frame whose words happen to form the
// progression after word writes reports false.
func (m *Memory) PageStride(p memdef.PFN) (uint64, bool) {
	f := &m.frames[p]
	return f.pattern, f.form == formStride
}

// ZeroPage clears frame p, as the kernel does before handing a page to
// a new user (and as KVM does for fresh EPT pages).
func (m *Memory) ZeroPage(p memdef.PFN) { m.FillWord(p, 0) }

// PageWord returns word idx (0..511) of frame p without computing an
// address, the fast path for page scans.
func (m *Memory) PageWord(p memdef.PFN, idx int) uint64 {
	return m.word(&m.frames[p], idx)
}

// SetPageWord writes word idx of frame p.
func (m *Memory) SetPageWord(p memdef.PFN, idx int, v uint64) {
	f := &m.frames[p]
	if f.form == formFull {
		m.pages[f.slot][idx] = v
		return
	}
	m.setWord(f, idx, v)
}

// PageUniform reports whether frame p currently holds the same word in
// all 512 positions, and that word.
func (m *Memory) PageUniform(p memdef.PFN) (uint64, bool) {
	f := &m.frames[p]
	switch f.form {
	case formSparse:
		if m.words[f.slot] != f.pattern {
			return 0, false
		}
	case formFull:
		pg := m.pages[f.slot]
		w := pg[0]
		for _, v := range pg[1:] {
			if v != w {
				return 0, false
			}
		}
		return w, true
	case formStride:
		return 0, false
	}
	return f.pattern, true
}

// FlipBit applies a Rowhammer flip candidate to the byte at address a,
// bit position bit (0..7). oneToZero gives the cell's fixed direction.
// It returns true if the stored value actually changed — i.e. the bit
// currently held the only value the cell can flip away from.
func (m *Memory) FlipBit(a memdef.HPA, bit uint, oneToZero bool) bool {
	if bit > 7 {
		panic(fmt.Sprintf("phys: bit index %d out of range", bit))
	}
	wordAddr := a &^ 7
	shift := (uint(a)&7)*8 + bit
	w := m.Word(wordAddr)
	cur := (w >> shift) & 1
	changed := uint64(0)
	if oneToZero {
		if cur == 1 {
			m.SetWord(wordAddr, w&^(1<<shift))
			changed = 1
		}
	} else {
		if cur == 0 {
			m.SetWord(wordAddr, w|(1<<shift))
			changed = 1
		}
	}
	m.led.Fold3(uint64(a), uint64(bit), changed)
	return changed == 1
}
