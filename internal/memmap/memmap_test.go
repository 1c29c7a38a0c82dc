package memmap

import (
	"testing"

	"hyperhammer/internal/memdef"
)

// TestDescFieldsRoundTrip packs each kind at its fields' extremes and
// reads every field back, so no field spills into a neighbour.
func TestDescFieldsRoundTrip(t *testing.T) {
	f := FreeDesc(memdef.MaxOrder-1, memdef.MigrateMovable, 1<<22)
	if f.Kind() != FreeHead || f.Order() != memdef.MaxOrder-1 || f.MT() != memdef.MigrateMovable || f.Index() != 1<<22 {
		t.Errorf("free head %#x: kind %d order %d mt %v index %d", f, f.Kind(), f.Order(), f.MT(), f.Index())
	}
	if p := PCPDesc(memdef.MigrateUnmovable); p.Kind() != PCP || p.MT() != memdef.MigrateUnmovable {
		t.Errorf("pcp %#x", p)
	}
	tb := TableDesc(0xFFFF, 0xFF, 4)
	if tb.Kind() != Table || tb.VM() != 0xFFFF || tb.Structure() != 0xFF || tb.Level() != 4 {
		t.Errorf("table %#x: vm %d structure %d level %d", tb, tb.VM(), tb.Structure(), tb.Level())
	}
	g := GuestDesc(3, 13<<18-1, true)
	if g.Kind() != Guest || g.VM() != 3 || g.GFN() != 13<<18-1 || !g.Huge() {
		t.Errorf("guest %#x: vm %d gfn %d huge %v", g, g.VM(), g.GFN(), g.Huge())
	}
	if GuestDesc(3, 7, false).Huge() || KernelDesc.Kind() != Kernel || Desc(0).Kind() != Allocated {
		t.Error("THP flag or kind constants wrong")
	}
}
