package kvm

import (
	"errors"
	"testing"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/memdef"
)

func TestBackgroundChurnConservesMemory(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	before := h.Buddy.FreePages()
	for i := 0; i < 10; i++ {
		h.BackgroundChurn(300)
	}
	mustCheckFrames(t, h, "churn")
	if after := h.Buddy.FreePages(); after != before {
		t.Errorf("churn leaked pages: %d -> %d", before, after)
	}
}

func TestBackgroundChurnPerturbsState(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	a1, _ := h.Buddy.AllocPage(memdef.MigrateUnmovable)
	h.Buddy.FreePage(a1, memdef.MigrateUnmovable)
	h.BackgroundChurn(200)
	a2, err := h.Buddy.AllocPage(memdef.MigrateUnmovable)
	if err != nil {
		t.Fatal(err)
	}
	// Not asserting a2 != a1 (it may legitimately coincide), just that
	// the allocator still functions and totals hold.
	h.Buddy.FreePage(a2, memdef.MigrateUnmovable)
}

func TestPlantSecretIsolatedFromGuests(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	secret := h.PlantSecret(0x53C237)
	vm := newTestVM(t, h, 64*memdef.MiB)
	// The secret page must not be reachable through any guest
	// mapping: walk every plugged chunk's backing and check.
	for gpa := memdef.GPA(0); gpa < 64*memdef.MiB; gpa += memdef.PageSize {
		hpa, err := vm.HypercallGPAToHPA(gpa)
		if err != nil {
			continue
		}
		if memdef.PFNOf(hpa) == memdef.PFNOf(secret) {
			t.Fatalf("secret frame %#x mapped into the guest at %#x", secret, gpa)
		}
	}
	if got := h.Mem.Word(secret); got != 0x53C237 {
		t.Errorf("secret word = %#x", got)
	}
}

func TestBootSplitsCreateEPTPages(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	vm, err := h.CreateVM(VMConfig{MemSize: 64 * memdef.MiB, BootSplits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := vm.Splits(); got < 10 {
		t.Errorf("boot splits = %d, want >= 10", got)
	}
	if got := len(eptLeaves(vm)); got < 10 {
		t.Errorf("leaf tables after boot = %d", got)
	}
	// Boot-split chunks execute without further splits.
	split, err := vm.ExecGPA(0)
	if err != nil || split {
		t.Errorf("exec at chunk 0: split=%v err=%v", split, err)
	}
}

func TestCreateVMFailsWhenHostFull(t *testing.T) {
	h := newTestHost(t, testHostConfig()) // 256 MiB host
	big, err := h.CreateVM(VMConfig{MemSize: 224 * memdef.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateVM(VMConfig{MemSize: 64 * memdef.MiB}); err == nil {
		t.Fatal("second VM fit in a full host")
	}
	// The failed creation must not leak memory: destroying the first
	// VM returns the host to its boot state.
	free := h.Buddy.FreePages()
	big.Destroy()
	if h.Buddy.FreePages() <= free {
		t.Error("destroy did not return memory")
	}
	if h.VMs() != 0 {
		t.Errorf("VMs = %d after failed create + destroy", h.VMs())
	}
}

func TestVMConfigValidation(t *testing.T) {
	h := newTestHost(t, testHostConfig())
	if _, err := h.CreateVM(VMConfig{MemSize: 3 * memdef.MiB / 2}); err == nil {
		t.Error("unaligned VM size accepted")
	}
	if _, err := h.CreateVM(VMConfig{MemSize: 0}); err == nil {
		t.Error("zero VM size accepted")
	}
}

func TestHostConfigValidation(t *testing.T) {
	if _, err := NewHost(Config{}); err == nil {
		t.Error("config without geometry accepted")
	}
}

// Collateral damage: flips land in whatever occupies the victim frame,
// including another tenant's memory — nothing in the host shields
// co-resident VMs from each other's hammering.
func TestHammerCollateralAcrossVMs(t *testing.T) {
	cfg := testHostConfig()
	cfg.Fault = denseStableFault(13)
	h := newTestHost(t, cfg)
	attacker := newTestVM(t, h, 96*memdef.MiB)
	victim := newTestVM(t, h, 96*memdef.MiB)
	// The victim fills its memory with ones.
	ones := func(int) uint64 { return ^uint64(0) }
	if err := victim.FillPagesGPA(0, int(96*memdef.MiB/memdef.PageSize), ones); err != nil {
		t.Fatal(err)
	}
	// The attacker hammers its own borders: rows 0-1 of each 2 MiB
	// chunk disturb the row below it, rows 6-7 the row above it.
	geo := h.DRAM.Geo
	for _, top := range []uint64{0, 6} {
		offA := top * geo.RowSpan()
		offB := (top + 1) * geo.RowSpan()
		for ; offB < (top+2)*geo.RowSpan(); offB += 64 {
			if geo.Bank(memdef.HPA(offA)) == geo.Bank(memdef.HPA(offB)) {
				break
			}
		}
		for gpa := memdef.GPA(0); gpa < 96*memdef.MiB; gpa += 2 * memdef.MiB {
			op := HammerBatchOp{Aggressors: []memdef.GPA{gpa + memdef.GPA(offA), gpa + memdef.GPA(offB)}, Rounds: 300_000}
			if err := attacker.HammerBatchGPA([]HammerBatchOp{op}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Flips must have hit the victim's frames (its memory is
	// physically adjacent to the attacker's).
	flips, _ := victim.ContentFlipsSince(0)
	if len(flips) == 0 {
		t.Fatal("no cross-VM flip landed in the victim")
	}
	for _, f := range flips {
		w, err := victim.ReadGPA64(f.GPA &^ 7)
		if err != nil {
			t.Fatal(err)
		}
		if w == ^uint64(0) {
			t.Errorf("reported cross-VM flip at %#x not visible", f.GPA)
		}
	}
}

func denseStableFault(seed uint64) dram.FaultModelConfig {
	return dram.FaultModelConfig{
		Seed: seed, CellsPerRow: 1.5,
		ThresholdMin: 50_000, ThresholdMax: 150_000,
		StableFraction: 1.0, FlakyP: 1.0,
	}
}

func TestErrorsAreDistinguishable(t *testing.T) {
	if errors.Is(ErrFault, ErrMachineCheck) || errors.Is(ErrMachineCheck, ErrNoExec) {
		t.Error("error identities collide")
	}
}
