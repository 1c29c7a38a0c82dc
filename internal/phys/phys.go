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

// frame is the per-frame content record, 16 bytes. A frame is in
// exactly one of two representations:
//
//   - pattern: every word of the page equals `pattern` (data == nil).
//     The zero value is therefore an all-zeros page, so a freshly
//     created memory is all-zero for free.
//   - materialized: data holds all 512 words explicitly.
//
// Pages transparently promote from pattern to materialized on the
// first non-uniform write or bit flip.
type frame struct {
	data    *[wordsPerPage]uint64
	pattern uint64
}

// Memory is the physical memory content store.
type Memory struct {
	frames []frame
	size   uint64

	// materialized counts frames holding explicit word arrays, for
	// resource diagnostics in tests.
	materialized int

	// pool recycles word arrays of dematerialized frames. The spray
	// and fill loops materialize and revert thousands of frames per
	// attempt; recycling caps that at one allocation per concurrent
	// materialized frame instead of one per touch.
	pool []*[wordsPerPage]uint64

	led *ledger.Stream
}

// poolCap bounds the recycled-array pool (4 KiB each, so 16 MiB).
const poolCap = 4096

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

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// SetLedger attaches the determinism-ledger stream for applied bit
// flips. Each FlipBit call folds (address, bit, changed) into
// "phys.flip"; a nil recorder leaves the store unledgered at zero
// cost.
func (m *Memory) SetLedger(r *ledger.Recorder) {
	m.led = r.Stream("phys.flip")
}

// Frames returns the number of 4 KiB frames.
func (m *Memory) Frames() int { return len(m.frames) }

// MaterializedFrames returns how many frames hold explicit content,
// a proxy for the simulation's real memory footprint.
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
	f := m.frameOf(a)
	if f.data == nil {
		return f.pattern
	}
	return f.data[memdef.PageOffset(a)/8]
}

// SetWord writes the 64-bit word at 8-byte-aligned address a.
func (m *Memory) SetWord(a memdef.HPA, v uint64) {
	if a&7 != 0 {
		panic(fmt.Sprintf("phys: unaligned word write at %#x", a))
	}
	f := m.frameOf(a)
	if f.data == nil {
		if f.pattern == v {
			return
		}
		m.materialize(f)
	}
	f.data[memdef.PageOffset(a)/8] = v
}

func (m *Memory) materialize(f *frame) {
	if n := len(m.pool); n > 0 {
		f.data = m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
		for i := range f.data {
			f.data[i] = f.pattern
		}
	} else {
		f.data = new([wordsPerPage]uint64)
		if f.pattern != 0 {
			for i := range f.data {
				f.data[i] = f.pattern
			}
		}
	}
	m.materialized++
}

// FillWord sets every word of frame p to v, reverting the frame to the
// compact pattern representation.
func (m *Memory) FillWord(p memdef.PFN, v uint64) {
	if uint64(p) >= uint64(len(m.frames)) {
		panic(fmt.Sprintf("phys: frame %d outside memory", p))
	}
	f := &m.frames[p]
	if f.data != nil {
		if len(m.pool) < poolCap {
			m.pool = append(m.pool, f.data)
		}
		f.data = nil
		m.materialized--
	}
	f.pattern = v
}

// ZeroPage clears frame p, as the kernel does before handing a page to
// a new user (and as KVM does for fresh EPT pages).
func (m *Memory) ZeroPage(p memdef.PFN) { m.FillWord(p, 0) }

// PageWord returns word idx (0..511) of frame p without computing an
// address, the fast path for page scans.
func (m *Memory) PageWord(p memdef.PFN, idx int) uint64 {
	f := &m.frames[p]
	if f.data == nil {
		return f.pattern
	}
	return f.data[idx]
}

// SetPageWord writes word idx of frame p.
func (m *Memory) SetPageWord(p memdef.PFN, idx int, v uint64) {
	f := &m.frames[p]
	if f.data == nil {
		if f.pattern == v {
			return
		}
		m.materialize(f)
	}
	f.data[idx] = v
}

// PageUniform reports whether frame p currently holds the same word in
// all 512 positions, and that word.
func (m *Memory) PageUniform(p memdef.PFN) (uint64, bool) {
	f := &m.frames[p]
	if f.data == nil {
		return f.pattern, true
	}
	w := f.data[0]
	for _, v := range f.data[1:] {
		if v != w {
			return 0, false
		}
	}
	return w, true
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
