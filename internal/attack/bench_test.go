package attack

import (
	"testing"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
)

// benchHost is bigHost without the testing.T plumbing.
func benchHost(b *testing.B, seed uint64) *kvm.Host {
	b.Helper()
	h, err := kvm.NewHost(kvm.Config{
		Geometry: bigGeometry(),
		Fault: dram.FaultModelConfig{
			Seed: seed, CellsPerRow: 0.02,
			ThresholdMin: 50_000, ThresholdMax: 200_000,
			StableFraction: 0.9, FlakyP: 0.35,
			NeighborWeight1: 1.0, NeighborWeight2: 0.25,
		},
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 100,
		Seed:           seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkCampaignAttempt measures one steer-and-exploit attempt —
// the inner loop of the Table 3 campaigns and the dominant cost of a
// full-scale run. The one-time profile and bit relocation setup run
// outside the timer, mirroring how RunCampaign amortizes them.
func BenchmarkCampaignAttempt(b *testing.B) {
	h := benchHost(b, 61)
	ccfg := CampaignConfig{
		Attack:      bigAttackConfig(),
		VM:          kvm.VMConfig{MemSize: 3584 * memdef.MiB, VFIOGroups: 1},
		MaxAttempts: 1,
	}
	ccfg.Attack.scratch = &attemptScratch{}

	// One-time profile pinned to physical addresses, as RunCampaign
	// does before its attempt loop.
	vm, err := h.CreateVM(ccfg.VM)
	if err != nil {
		b.Fatal(err)
	}
	gos := guest.Boot(vm)
	prof, err := Profile(gos, ccfg.Attack)
	if err != nil {
		b.Fatal(err)
	}
	var bits []physicalBit
	for _, bit := range prof.ExploitableBits(0) {
		cell, err1 := gos.Hypercall(bit.Flip.GVA)
		aggrA, err2 := gos.Hypercall(bit.AggressorA)
		aggrB, err3 := gos.Hypercall(bit.AggressorB)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		bits = append(bits, physicalBit{
			cellHPA: cell, bit: bit.Flip.Bit,
			aggrA: aggrA, aggrB: aggrB,
			epteBit: bit.Flip.EPTEBit(),
		})
	}
	vm.Destroy()
	if len(bits) == 0 {
		b.Fatal("profile found no exploitable bits")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.BackgroundChurn(churnOps)
		if _, err := runAttempt(h, ccfg, bits, i+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo measures the sharded Monte-Carlo sampler that
// backs the Section 5.3 analysis (one full 500k-sample estimate per
// iteration).
func BenchmarkMonteCarlo(b *testing.B) {
	cfg := MonteCarloConfig{
		Seed:              61,
		Samples:           500_000,
		EPTPages:          6144,
		HostFrames:        int(16 * memdef.GiB / memdef.PageSize),
		ExploitableBitLow: 21, ExploitableBitHigh: 34,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := MonteCarloSuccess(cfg); p <= 0 {
			b.Fatalf("estimate %v", p)
		}
	}
}
