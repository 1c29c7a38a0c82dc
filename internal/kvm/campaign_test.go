package kvm_test

import (
	"testing"

	"hyperhammer/internal/attack"
	"hyperhammer/internal/dram"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
)

// TestFrameAccountingAfterCampaign runs a few attempts of a short-scale
// Table 3 campaign — the 4 GiB host of the -short matrix, whose
// attempts respawn the VM, spray IOPT pages, release and split
// hugepages and hammer — and checks the frame accounting at its end.
func TestFrameAccountingAfterCampaign(t *testing.T) {
	masks := dram.CoreI310100().BankMasks
	h, err := kvm.NewHost(kvm.Config{
		Geometry: dram.MustGeometry(dram.Geometry{
			Name: "short-4G", Size: 4 * memdef.GiB, BankMasks: masks, RowShift: 18, RowBits: 14,
		}),
		Fault: dram.FaultModelConfig{
			Seed: 1, CellsPerRow: 0.02,
			ThresholdMin: 120_000, ThresholdMax: 400_000,
			StableFraction: 0.54, FlakyP: 0.35,
			NeighborWeight1: 1.0, NeighborWeight2: 0.25,
		},
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 2000,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := attack.DefaultConfig(masks)
	cfg.HostMemBits, cfg.IOVAMappings, cfg.TargetBits = 32, 6000, 3
	res, err := attack.RunCampaign(h, attack.CampaignConfig{
		Attack:      cfg,
		VM:          kvm.VMConfig{MemSize: 3584 * memdef.MiB, VFIOGroups: 1, BootSplits: 150},
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attempts) == 0 {
		t.Fatal("campaign ran no attempt")
	}
	t.Logf("%d attempts, profiled %d bits, first outcome %q", len(res.Attempts), res.ProfiledBits, res.Attempts[0].Outcome)
	if err := kvm.CheckFrames(h); err != nil {
		t.Fatalf("frame accounting after %d campaign attempts:\n%v", len(res.Attempts), err)
	}
}
