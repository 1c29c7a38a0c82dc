// Package dram models the DRAM subsystem of the simulated machine:
// the physical-address-to-DRAM mapping (bank and row functions), the
// row-buffer timing behaviour that DRAMDig-style tools observe, and a
// seeded Rowhammer fault model that decides which cells flip under
// which hammer patterns.
//
// The two concrete geometries correspond to the paper's evaluation
// machines (Section 5.1): the Intel Core i3-10100 (S1) and the Intel
// Xeon E3-2124 (S2), both with two 8 GiB DDR4-2666 DIMMs. The bank
// address functions are the ones the paper reverse engineered with
// DRAMDig; both use only address bits below 21, which is the property
// that makes THP-based profiling possible.
package dram

import (
	"fmt"
	"math/bits"

	"hyperhammer/internal/memdef"
)

// Geometry describes how host physical addresses map onto DRAM banks
// and rows for one machine configuration.
//
// The model follows the paper's findings: a set of XOR functions over
// physical address bits selects the bank, and the bits from rowShift
// up to the top of memory select the row number. Consecutive row
// numbers within the same bank are physically adjacent, which is what
// Rowhammer adjacency means here.
type Geometry struct {
	// Name identifies the processor the geometry models.
	Name string
	// Size is the total memory size in bytes. Must be a power of two.
	Size uint64
	// BankMasks holds one XOR mask per bank-number bit: bank bit i is
	// the XOR (parity) of the physical address bits selected by
	// BankMasks[i].
	BankMasks []uint64

	// rowBits is the number of row-number bits, derived from Size.
	rowBits uint

	// lineOffsets[b] lists, for bank b, the offsets (in units of one
	// 64-byte cache line) within a row-span that map to bank b. It is
	// the precomputed inverse of the bank function, used to convert a
	// (bank, row, bit) fault coordinate back to a physical address.
	lineOffsets [][]uint32
}

// LineSize is the granularity at which the bank function is constant:
// no modelled bank mask uses address bits below 6.
const LineSize = 64

// rowShift is the lowest physical address bit of the row number. Both
// evaluation machines put it at bit 18 (Section 5.1), so one row-span
// is 256 KiB.
const rowShift = 18

// NewGeometry validates and finishes a geometry description: it
// derives the row bits from Size and precomputes the bank-function
// inverse.
func NewGeometry(g Geometry) (*Geometry, error) {
	if g.Size == 0 || g.Size&(g.Size-1) != 0 {
		return nil, fmt.Errorf("dram: size %#x is not a power of two", g.Size)
	}
	if g.Size <= 1<<rowShift {
		return nil, fmt.Errorf("dram: size %#x holds no more than one %d KiB row-span", g.Size, (1<<rowShift)>>10)
	}
	if len(g.BankMasks) == 0 {
		return nil, fmt.Errorf("dram: geometry %q has no bank masks", g.Name)
	}
	for i, m := range g.BankMasks {
		if m == 0 {
			return nil, fmt.Errorf("dram: bank mask %d is zero", i)
		}
		if m&(LineSize-1) != 0 {
			return nil, fmt.Errorf("dram: bank mask %d (%#x) uses sub-cacheline bits", i, m)
		}
	}
	g.rowBits = uint(bits.TrailingZeros64(g.Size)) - rowShift

	// Invert the bank function within one row-span. The bank value of
	// an address depends on bits inside the row-span (below rowShift)
	// and possibly on row bits (the Xeon's last mask mixes bits 18/19
	// in); the inverse is computed per row-parity class lazily in
	// ComposeLine. Here we precompute the span-internal contribution
	// split by bank for the common case where row bits contribute a
	// fixed XOR that ComposeLine folds in.
	spanLines := (uint64(1) << rowShift) / LineSize
	g.lineOffsets = make([][]uint32, g.Banks())
	for line := uint64(0); line < spanLines; line++ {
		b := g.bankOfSpanLine(line)
		g.lineOffsets[b] = append(g.lineOffsets[b], uint32(line))
	}
	return &g, nil
}

// MustGeometry is NewGeometry that panics on error, for the package's
// own predefined configurations.
func MustGeometry(g Geometry) *Geometry {
	out, err := NewGeometry(g)
	if err != nil {
		panic(err)
	}
	return out
}

// Banks returns the number of banks (2^len(BankMasks)).
func (g *Geometry) Banks() int { return 1 << len(g.BankMasks) }

// Rows returns the number of rows per bank.
func (g *Geometry) Rows() int { return 1 << g.rowBits }

// RowSpan returns the size in bytes of one row-span: the contiguous
// physical address range that shares a single row number across all
// banks. (256 KiB on both modelled machines.)
func (g *Geometry) RowSpan() uint64 { return 1 << rowShift }

// RowBytesPerBank returns how many bytes of one row-span live in each
// bank — the DRAM row size as seen by the hammer model.
func (g *Geometry) RowBytesPerBank() uint64 { return g.RowSpan() / uint64(g.Banks()) }

// Bank returns the bank number of physical address a.
func (g *Geometry) Bank(a memdef.HPA) int {
	b := 0
	for i, m := range g.BankMasks {
		b |= int(bits.OnesCount64(uint64(a)&m)&1) << i
	}
	return b
}

// Row returns the row number of physical address a.
func (g *Geometry) Row(a memdef.HPA) int {
	return int((uint64(a) >> rowShift) & ((1 << g.rowBits) - 1))
}

// bankOfSpanLine computes the bank of a line offset within a row-span,
// considering only the address bits below rowShift. Row-bit
// contributions are handled by ComposeLine / Bank.
func (g *Geometry) bankOfSpanLine(line uint64) int {
	return g.Bank(memdef.HPA(line * LineSize))
}

// rowXORContribution returns the bank-number XOR contribution of the
// row bits of row r (relevant for geometries like the Xeon whose bank
// masks include bits >= rowShift).
func (g *Geometry) rowXORContribution(row int) int {
	a := uint64(row) << rowShift
	b := 0
	for i, m := range g.BankMasks {
		hi := m &^ ((1 << rowShift) - 1)
		b |= int(bits.OnesCount64(a&hi)&1) << i
	}
	return b
}

// LinesPerBankRow returns the number of cache lines of one row that
// map to one bank (the length of each inverse class).
func (g *Geometry) LinesPerBankRow() int { return len(g.lineOffsets[0]) }

// ComposeLine returns the physical address of the idx-th cache line of
// (bank, row). idx ranges over [0, LinesPerBankRow()). It is the exact
// inverse of (Bank, Row) at line granularity.
func (g *Geometry) ComposeLine(bank, row, idx int) memdef.HPA {
	// The span-internal class was computed with row bits zero. For a
	// nonzero row the row bits XOR-shift the bank value, so the lines
	// that land in `bank` for this row are the class of
	// bank ^ rowContribution.
	class := bank ^ g.rowXORContribution(row)
	lines := g.lineOffsets[class]
	return memdef.HPA(uint64(row)<<rowShift + uint64(lines[idx])*LineSize)
}

// SameBank reports whether two addresses share a DRAM bank.
func (g *Geometry) SameBank(a, b memdef.HPA) bool { return g.Bank(a) == g.Bank(b) }

// Contains reports whether a falls inside the modelled memory.
func (g *Geometry) Contains(a memdef.HPA) bool { return uint64(a) < g.Size }

func maskOf(bits ...uint) uint64 {
	var m uint64
	for _, b := range bits {
		m |= 1 << b
	}
	return m
}

// CoreI310100 returns the geometry of evaluation machine S1: Intel
// Core i3-10100 with 16 GiB DDR4-2666. Bank function per Section 5.1:
// bits (17,21), (16,20), (15,19), (14,18), (6,13); rows on bits 18-33.
func CoreI310100() *Geometry {
	return MustGeometry(Geometry{
		Name: "Intel Core i3-10100 (S1)",
		Size: 16 * memdef.GiB,
		BankMasks: []uint64{
			maskOf(17, 21),
			maskOf(16, 20),
			maskOf(15, 19),
			maskOf(14, 18),
			maskOf(6, 13),
		},
	})
}

// XeonE32124 returns the geometry of evaluation machine S2: Intel Xeon
// E3-2124 with 16 GiB DDR4-2666. Bank function per Section 5.1: bits
// (17,20), (16,19), (15,18), (7,14), (8,9,12,13,18,19); rows on bits
// 18-33.
func XeonE32124() *Geometry {
	return MustGeometry(Geometry{
		Name: "Intel Xeon E3-2124 (S2)",
		Size: 16 * memdef.GiB,
		BankMasks: []uint64{
			maskOf(17, 20),
			maskOf(16, 19),
			maskOf(15, 18),
			maskOf(7, 14),
			maskOf(8, 9, 12, 13, 18, 19),
		},
	})
}
