package dram

import (
	"testing"
	"testing/quick"

	"hyperhammer/internal/memdef"
)

// Property: (Bank, Row) -> ComposeLine -> (Bank, Row) is the identity
// for arbitrary coordinates on both real geometries.
func TestPropertyComposeLineInverse(t *testing.T) {
	for _, geo := range []*Geometry{CoreI310100(), XeonE32124()} {
		geo := geo
		f := func(bankRaw, rowRaw, idxRaw uint32) bool {
			bank := int(bankRaw) % geo.Banks()
			row := int(rowRaw) % geo.Rows()
			idx := int(idxRaw) % geo.LinesPerBankRow()
			a := geo.ComposeLine(bank, row, idx)
			return geo.Bank(a) == bank && geo.Row(a) == row && geo.Contains(a)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", geo.Name, err)
		}
	}
}

// Property: AddrOfCell places every cell coordinate at an address in
// the right bank and row with the right bit position.
func TestPropertyAddrOfCellRoundTrip(t *testing.T) {
	m := NewModule(XeonE32124(), S2FaultModel(3))
	rowBits := int(m.Geo.RowBytesPerBank()) * 8
	f := func(bankRaw, rowRaw uint16, bitRaw uint32) bool {
		bank := int(bankRaw) % m.Geo.Banks()
		row := int(rowRaw) % m.Geo.Rows()
		bitIndex := int(bitRaw) % rowBits
		a, bit := m.AddrOfCell(bank, row, bitIndex)
		return m.Geo.Bank(a) == bank && m.Geo.Row(a) == row && bit == uint(bitIndex%8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the bank-collision relation within a hugepage depends only
// on the low 21 address bits, for arbitrary hugepage bases and
// offsets — the THP profiling precondition.
func TestPropertyBankCollisionLow21(t *testing.T) {
	for _, geo := range []*Geometry{CoreI310100(), XeonE32124()} {
		geo := geo
		f := func(baseRaw uint32, o1Raw, o2Raw uint32) bool {
			base := memdef.HPA(baseRaw%(uint32(geo.Size>>memdef.HugePageShift))) << memdef.HugePageShift
			o1 := memdef.HPA(o1Raw % memdef.HugePageSize &^ 63)
			o2 := memdef.HPA(o2Raw % memdef.HugePageSize &^ 63)
			absolute := geo.Bank(base+o1) == geo.Bank(base+o2)
			relative := geo.Bank(o1) == geo.Bank(o2)
			return absolute == relative
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", geo.Name, err)
		}
	}
}

// Property: a hammer operation's candidate flips always land in rows
// adjacent (distance 1 or 2) to an aggressor in the same bank, never
// in the aggressor rows themselves.
func TestPropertyFlipsNearAggressors(t *testing.T) {
	m := NewModule(CoreI310100(), FaultModelConfig{
		Seed: 4, CellsPerRow: 1.5,
		ThresholdMin: 10_000, ThresholdMax: 60_000,
		StableFraction: 0.8, FlakyP: 0.5,
	})
	f := func(bankRaw, rowRaw uint16) bool {
		bank := int(bankRaw) % m.Geo.Banks()
		row := int(rowRaw)%(m.Geo.Rows()-8) + 4
		op := HammerOp{
			Aggressors: []RowRef{{bank, row}, {bank, row + 1}},
			Rounds:     250_000,
		}
		for _, fl := range m.Hammer(op) {
			if fl.Row.Bank != bank {
				return false
			}
			d := fl.Row.Row - row
			if d >= 0 && d <= 1 {
				return false // aggressor rows must not flip
			}
			if d < -2 || d > 3 {
				return false // beyond blast radius
			}
			// The reported address must decode back to the victim row.
			if m.Geo.Bank(fl.Addr) != bank || m.Geo.Row(fl.Addr) != fl.Row.Row {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
