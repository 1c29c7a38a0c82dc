package dram

import (
	"testing"

	"hyperhammer/internal/memdef"
)

func geometries() []*Geometry {
	return []*Geometry{CoreI310100(), XeonE32124()}
}

func TestGeometryShape(t *testing.T) {
	for _, g := range geometries() {
		if got, want := g.Banks(), 32; got != want {
			t.Errorf("%s: Banks() = %d, want %d", g.Name, got, want)
		}
		if got, want := g.Rows(), 65536; got != want {
			t.Errorf("%s: Rows() = %d, want %d", g.Name, got, want)
		}
		if got, want := g.RowSpan(), uint64(256*memdef.KiB); got != want {
			t.Errorf("%s: RowSpan() = %d, want %d", g.Name, got, want)
		}
		if got, want := g.RowBytesPerBank(), uint64(8*memdef.KiB); got != want {
			t.Errorf("%s: RowBytesPerBank() = %d, want %d", g.Name, got, want)
		}
	}
}

// Each 2 MiB hugepage must contain exactly eight row-spans
// (Section 5.1: "each 2 MB hugepage contains eight rows").
func TestHugepageContainsEightRows(t *testing.T) {
	for _, g := range geometries() {
		base := memdef.HPA(6 * memdef.GiB)
		rows := map[int]bool{}
		for off := uint64(0); off < memdef.HugePageSize; off += g.RowSpan() {
			rows[g.Row(base+memdef.HPA(off))] = true
		}
		if len(rows) != 8 {
			t.Errorf("%s: hugepage spans %d rows, want 8", g.Name, len(rows))
		}
	}
}

// The bank function must be fully determined by the low 21 bits in a
// relative sense: two addresses that agree on bits >= 21 collide in a
// bank iff their low-21-bit bank contributions match. This is the
// property that THP profiling exploits (Section 4.1).
func TestBankRelativeToLow21Bits(t *testing.T) {
	for _, g := range geometries() {
		hugepages := []memdef.HPA{0, 2 * memdef.MiB, 512 * memdef.MiB, 7 * memdef.GiB}
		offsets := []uint64{0, 64, 4096, 1 << 13, 1 << 17, 1<<21 - 64}
		for _, o1 := range offsets {
			for _, o2 := range offsets {
				sameLow := g.Bank(memdef.HPA(o1)) == g.Bank(memdef.HPA(o2))
				for _, hp := range hugepages {
					got := g.Bank(hp+memdef.HPA(o1)) == g.Bank(hp+memdef.HPA(o2))
					if got != sameLow {
						t.Fatalf("%s: bank collision of offsets %#x,%#x differs at hugepage %#x", g.Name, o1, o2, hp)
					}
				}
			}
		}
	}
}

func TestBankDistributionUniform(t *testing.T) {
	for _, g := range geometries() {
		counts := make([]int, g.Banks())
		// Count over one full row-span at line granularity.
		for line := uint64(0); line < g.RowSpan()/LineSize; line++ {
			counts[g.Bank(memdef.HPA(line*LineSize))]++
		}
		want := int(g.RowSpan()/LineSize) / g.Banks()
		for b, c := range counts {
			if c != want {
				t.Errorf("%s: bank %d holds %d lines of a row-span, want %d", g.Name, b, c, want)
			}
		}
	}
}

// ComposeLine must be the exact inverse of (Bank, Row) at cache-line
// granularity, for rows whose bits feed back into the bank function
// (Xeon) and for rows that don't (i3).
func TestComposeLineInverse(t *testing.T) {
	for _, g := range geometries() {
		for _, row := range []int{0, 1, 7, 8, 4097, 65535} {
			for _, bank := range []int{0, 1, 13, 31} {
				for _, idx := range []int{0, 1, g.LinesPerBankRow() / 2, g.LinesPerBankRow() - 1} {
					a := g.ComposeLine(bank, row, idx)
					if got := g.Bank(a); got != bank {
						t.Fatalf("%s: ComposeLine(%d,%d,%d)=%#x has bank %d", g.Name, bank, row, idx, a, got)
					}
					if got := g.Row(a); got != row {
						t.Fatalf("%s: ComposeLine(%d,%d,%d)=%#x has row %d", g.Name, bank, row, idx, a, got)
					}
				}
			}
		}
	}
}

func TestComposeLineCoversBankRow(t *testing.T) {
	g := CoreI310100()
	seen := map[memdef.HPA]bool{}
	bank, row := 5, 1234
	for i := 0; i < g.LinesPerBankRow(); i++ {
		a := g.ComposeLine(bank, row, i)
		if seen[a] {
			t.Fatalf("duplicate address %#x from ComposeLine", a)
		}
		seen[a] = true
	}
	if got, want := len(seen)*LineSize, int(g.RowBytesPerBank()); got != want {
		t.Errorf("bank-row coverage %d bytes, want %d", got, want)
	}
}

// NewGeometry derives the row count from Size: the row number is every
// address bit from bit 18 up to the top of memory.
func TestNewGeometryDerivesRows(t *testing.T) {
	for _, c := range []struct {
		size uint64
		rows int
	}{
		{512 * memdef.KiB, 2},
		{512 * memdef.MiB, 2048},
		{4 * memdef.GiB, 16384},
		{16 * memdef.GiB, 65536},
	} {
		g, err := NewGeometry(Geometry{Name: "derived", Size: c.size, BankMasks: []uint64{1 << 6}})
		if err != nil {
			t.Fatalf("size %#x: %v", c.size, err)
		}
		if got := g.Rows(); got != c.rows {
			t.Errorf("size %#x: Rows() = %d, want %d", c.size, got, c.rows)
		}
		if got := g.Row(memdef.HPA(c.size - 1)); got != c.rows-1 {
			t.Errorf("size %#x: Row(last byte) = %d, want %d", c.size, got, c.rows-1)
		}
	}
}

func TestNewGeometryRejectsBadConfigs(t *testing.T) {
	cases := []Geometry{
		{Name: "no masks", Size: 1 << 30},
		{Name: "odd size", Size: 3 << 20, BankMasks: []uint64{1 << 6}},
		{Name: "sub-line mask", Size: 1 << 30, BankMasks: []uint64{1 << 3}},
		{Name: "one row-span", Size: 256 * memdef.KiB, BankMasks: []uint64{1 << 6}},
		{Name: "below one row-span", Size: 64 * memdef.KiB, BankMasks: []uint64{1 << 6}},
	}
	for _, c := range cases {
		if _, err := NewGeometry(c); err == nil {
			t.Errorf("NewGeometry(%s): expected error", c.Name)
		}
	}
}
