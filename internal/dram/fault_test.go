package dram

import (
	"testing"

	"hyperhammer/internal/memdef"
)

func testModule(seed uint64) *Module {
	return NewModule(CoreI310100(), S1FaultModel(seed))
}

func TestVulnerableCellsDeterministic(t *testing.T) {
	m1 := testModule(42)
	m2 := testModule(42)
	// Visit in different orders; populations must agree.
	for _, bank := range []int{0, 7, 31} {
		for _, row := range []int{0, 100, 65535} {
			a := m1.VulnerableCells(bank, row)
			b := m2.VulnerableCells(31-bank, 65535-row) // decorrelate visit order
			_ = b
			b2 := m2.VulnerableCells(bank, row)
			if len(a) != len(b2) {
				t.Fatalf("cell count mismatch at bank=%d row=%d: %d vs %d", bank, row, len(a), len(b2))
			}
			for i := range a {
				if a[i] != b2[i] {
					t.Fatalf("cell %d mismatch at bank=%d row=%d", i, bank, row)
				}
			}
		}
	}
}

func TestCellPopulationDensity(t *testing.T) {
	m := testModule(1)
	total := 0
	const rows = 20000
	for r := 0; r < rows; r++ {
		total += len(m.VulnerableCells(r%32, r))
	}
	// Expected about rows * CellsPerRow = 52 cells; allow a wide band.
	if total < 20 || total > 120 {
		t.Errorf("vulnerable cells over %d rows = %d, want around 52", rows, total)
	}
}

func TestCellPopulationVariesWithSeed(t *testing.T) {
	a, b := testModule(1), testModule(2)
	same := 0
	checked := 0
	for r := 0; r < 50000; r++ {
		ca, cb := a.VulnerableCells(r%32, r), b.VulnerableCells(r%32, r)
		if len(ca) > 0 || len(cb) > 0 {
			checked++
			if len(ca) == len(cb) && len(ca) > 0 {
				same++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no vulnerable rows found")
	}
	if same == checked {
		t.Error("different seeds produced identical populations")
	}
}

// findVulnerableRow locates some row with at least one stable cell.
func findVulnerableRow(t *testing.T, m *Module, wantStable bool) (RowRef, Cell) {
	t.Helper()
	for r := 0; r < m.Geo.Rows(); r++ {
		for b := 0; b < m.Geo.Banks(); b++ {
			for _, c := range m.VulnerableCells(b, r) {
				if c.Stable == wantStable {
					return RowRef{b, r}, c
				}
			}
		}
	}
	t.Fatal("no vulnerable row in module")
	return RowRef{}, Cell{}
}

func TestHammerFlipsStableCellAboveThreshold(t *testing.T) {
	m := testModule(7)
	victim, cell := findVulnerableRow(t, m, true)
	op := HammerOp{
		Aggressors: []RowRef{{victim.Bank, victim.Row + 1}, {victim.Bank, victim.Row + 2}},
		Rounds:     500_000, // well above ThresholdMax with weight >= 1
	}
	flips := m.Hammer(op)
	found := false
	for _, f := range flips {
		if f.Row == victim {
			a, bit := m.AddrOfCell(victim.Bank, victim.Row, cell.BitIndex)
			if f.Addr == a && f.Bit == bit && f.Direction == cell.Direction {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("stable cell did not flip under %d rounds (threshold %.0f)", op.Rounds, cell.Threshold)
	}
}

func TestHammerBelowThresholdNoFlips(t *testing.T) {
	m := testModule(7)
	victim, _ := findVulnerableRow(t, m, true)
	op := HammerOp{
		Aggressors: []RowRef{{victim.Bank, victim.Row + 1}},
		Rounds:     1000, // far below ThresholdMin
	}
	if flips := m.Hammer(op); len(flips) != 0 {
		t.Errorf("got %d flips below threshold", len(flips))
	}
}

func TestHammerDoesNotFlipAggressorRows(t *testing.T) {
	m := testModule(7)
	victim, _ := findVulnerableRow(t, m, true)
	// Make the vulnerable row itself an aggressor.
	op := HammerOp{
		Aggressors: []RowRef{{victim.Bank, victim.Row}, {victim.Bank, victim.Row + 3}},
		Rounds:     1_000_000,
	}
	for _, f := range m.Hammer(op) {
		if f.Row == victim {
			t.Errorf("aggressor row %v reported as flipped", victim)
		}
	}
}

func TestHammerDeterministicWithoutRNG(t *testing.T) {
	m1, m2 := testModule(9), testModule(9)
	op := HammerOp{Aggressors: []RowRef{{3, 1000}, {3, 1001}}, Rounds: 400_000}
	f1, f2 := m1.Hammer(op), m2.Hammer(op)
	if len(f1) != len(f2) {
		t.Fatalf("flip counts differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Errorf("flip %d differs: %+v vs %+v", i, f1[i], f2[i])
		}
	}
}

func TestAddrOfCellRoundTrip(t *testing.T) {
	m := testModule(3)
	for _, bank := range []int{0, 17, 31} {
		for _, row := range []int{0, 512, 65535} {
			for _, bitIndex := range []int{0, 1, 8*1024*8 - 1, 12345} {
				a, bit := m.AddrOfCell(bank, row, bitIndex)
				if got := m.Geo.Bank(a); got != bank {
					t.Fatalf("AddrOfCell(%d,%d,%d)=%#x: bank %d", bank, row, bitIndex, a, got)
				}
				if got := m.Geo.Row(a); got != row {
					t.Fatalf("AddrOfCell(%d,%d,%d)=%#x: row %d", bank, row, bitIndex, a, got)
				}
				if bit != uint(bitIndex%8) {
					t.Fatalf("AddrOfCell bit = %d, want %d", bit, bitIndex%8)
				}
			}
		}
	}
}

func TestHammerOpActivations(t *testing.T) {
	op := HammerOp{Aggressors: []RowRef{{0, 1}, {0, 2}}, Rounds: 250000}
	if got, want := op.Activations(), int64(500000); got != want {
		t.Errorf("Activations() = %d, want %d", got, want)
	}
}

func TestS1S2PresetCharacter(t *testing.T) {
	// S2 should have both a denser population and far fewer stable
	// cells than S1 (Table 1 character).
	s1 := NewModule(CoreI310100(), S1FaultModel(5))
	s2 := NewModule(XeonE32124(), S2FaultModel(5))
	count := func(m *Module) (total, stable int) {
		for r := 0; r < 30000; r++ {
			for _, c := range m.VulnerableCells(r%32, r) {
				total++
				if c.Stable {
					stable++
				}
			}
		}
		return
	}
	t1, s1n := count(s1)
	t2, s2n := count(s2)
	if t2 <= t1 {
		t.Errorf("S2 total %d not above S1 total %d", t2, t1)
	}
	if t1 == 0 || t2 == 0 {
		t.Fatal("no cells sampled")
	}
	if float64(s1n)/float64(t1) <= float64(s2n)/float64(t2) {
		t.Errorf("S1 stable fraction %d/%d not above S2's %d/%d", s1n, t1, s2n, t2)
	}
}

func TestTimingModelSeparatesConflicts(t *testing.T) {
	g := CoreI310100()
	tm := NewTiming(g, 11)
	// Same bank, different row.
	conflict := g.ComposeLine(4, 100, 0)
	conflict2 := g.ComposeLine(4, 101, 0)
	hit := g.ComposeLine(5, 100, 0)
	if !tm.Conflicts(conflict, conflict2) {
		t.Fatal("expected row-buffer conflict")
	}
	if tm.Conflicts(conflict, hit) {
		t.Fatal("expected no conflict across banks")
	}
	// Averages over repeated probes must separate cleanly.
	var sumC, sumH int64
	const n = 200
	for i := 0; i < n; i++ {
		sumC += int64(tm.ProbePair(conflict, conflict2))
		sumH += int64(tm.ProbePair(conflict, hit))
	}
	if sumC <= sumH {
		t.Errorf("conflict mean %d not above hit mean %d", sumC/n, sumH/n)
	}
	_ = memdef.HPA(0)
}

// Hammering longer than one refresh window must not hammer harder:
// the victim's charge budget resets every tREFW.
func TestRefreshWindowCapsDisturbance(t *testing.T) {
	cfg := S1FaultModel(5)
	cfg.ThresholdMin = 2_000_000 // above the window budget
	cfg.ThresholdMax = 4_000_000
	cfg.CellsPerRow = 2.0
	cfg.StableFraction = 1.0
	m := NewModule(CoreI310100(), cfg)
	op := HammerOp{
		Aggressors: []RowRef{{3, 100}, {3, 101}},
		Rounds:     100_000_000, // absurd; must clamp to the window
	}
	if flips := m.Hammer(op); len(flips) != 0 {
		t.Errorf("%d flips from cells above the refresh-window budget", len(flips))
	}
	// The same op flips cells whose thresholds one window reaches.
	cfg.ThresholdMin = windowActivations / 4
	cfg.ThresholdMax = windowActivations / 2
	m2 := NewModule(CoreI310100(), cfg)
	if flips := m2.Hammer(op); len(flips) == 0 {
		t.Error("no flips from cells within the refresh-window budget")
	}
}
