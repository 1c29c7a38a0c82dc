package hammer

import (
	"testing"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
)

func testGeometry() *dram.Geometry {
	return dram.MustGeometry(dram.Geometry{
		Name: "test-256M",
		Size: 256 * memdef.MiB,
		BankMasks: []uint64{
			1<<17 | 1<<21,
			1<<16 | 1<<20,
			1<<15 | 1<<19,
			1<<14 | 1<<18,
			1<<6 | 1<<13,
		},
		RowShift: 18,
		RowBits:  10,
	})
}

func bootGuest(t *testing.T) *guest.OS {
	t.Helper()
	h, err := kvm.NewHost(kvm.Config{
		Geometry: testGeometry(),
		Fault: dram.FaultModelConfig{
			Seed: 8, CellsPerRow: 1.0,
			ThresholdMin: 50_000, ThresholdMax: 150_000,
			StableFraction: 0.95, FlakyP: 0.5,
			NeighborWeight1: 1.0, NeighborWeight2: 0.25,
		},
		THP: true, NXHugepages: true, BootNoisePages: 200, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: 160 * memdef.MiB, VFIOGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	return guest.Boot(vm)
}

func testConfig() Config {
	return Config{
		BankMasks: testGeometry().BankMasks,
		Hugepages: 32,
		Repeats:   2,
	}
}

// The search must reach the paper's Section 5.1 conclusion: the
// two-row single-sided pattern produces reproducible flips, while
// single-row and low-intensity patterns do not.
func TestSearchFindsSingleSidedPattern(t *testing.T) {
	os := bootGuest(t)
	results, err := Search(os, testConfig(), DefaultPatterns())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(DefaultPatterns()) {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Pattern.Name] = r
	}
	if byName["single-row (row 7)"].Flips != 0 {
		t.Errorf("single-row pattern flipped %d bits; row-buffer model broken",
			byName["single-row (row 7)"].Flips)
	}
	if byName["low-intensity (rows 6,7)"].Flips != 0 {
		t.Errorf("40k rounds flipped %d bits below threshold",
			byName["low-intensity (rows 6,7)"].Flips)
	}
	ss := byName["single-sided-2 (rows 6,7)"]
	if ss.Flips == 0 || ss.Reproducible == 0 {
		t.Errorf("single-sided pattern found %d flips, %d reproducible", ss.Flips, ss.Reproducible)
	}
	best, ok := Best(results)
	if !ok {
		t.Fatal("no best pattern")
	}
	if best.Pattern.Rounds != 250_000 || len(best.Pattern.RowOffsets) != 2 {
		t.Errorf("best pattern = %+v, want a two-row 250k pattern", best.Pattern)
	}
	// The buffer must have been returned.
	if os.FreeHugepages() == 0 {
		t.Error("search leaked the test buffer")
	}
}

func TestSearchBadConfig(t *testing.T) {
	os := bootGuest(t)
	for _, cfg := range []Config{
		{},
		{BankMasks: []uint64{1 << 6}, Hugepages: 0, Repeats: 1},
	} {
		if _, err := Search(os, cfg, DefaultPatterns()); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestBestEmpty(t *testing.T) {
	if _, ok := Best(nil); ok {
		t.Error("Best of nothing")
	}
}
