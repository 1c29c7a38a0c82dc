package attack

import (
	"testing"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
)

// Small 512 MiB machine for fast integration tests.
func testGeometry() *dram.Geometry {
	return dram.MustGeometry(dram.Geometry{
		Name: "test-512M",
		Size: 512 * memdef.MiB,
		BankMasks: []uint64{
			1<<17 | 1<<21,
			1<<16 | 1<<20,
			1<<15 | 1<<19,
			1<<14 | 1<<18,
			1<<6 | 1<<13,
		},
		RowShift: 18,
		RowBits:  11,
	})
}

// denseFault makes flips plentiful and deterministic so small tests
// exercise the full pipeline.
func denseFault(seed uint64) dram.FaultModelConfig {
	return dram.FaultModelConfig{
		Seed: seed, CellsPerRow: 0.8,
		ThresholdMin: 50_000, ThresholdMax: 200_000,
		StableFraction: 0.9, FlakyP: 0.35,
		NeighborWeight1: 1.0, NeighborWeight2: 0.25,
	}
}

func testAttackConfig() Config {
	cfg := DefaultConfig([]uint64{
		1<<17 | 1<<21,
		1<<16 | 1<<20,
		1<<15 | 1<<19,
		1<<14 | 1<<18,
		1<<6 | 1<<13,
	})
	cfg.HostMemBits = 29 // 512 MiB host
	cfg.IOVAMappings = 3000
	cfg.TargetBits = 8
	return cfg
}

func testHost(t *testing.T, seed uint64) *kvm.Host {
	t.Helper()
	h, err := kvm.NewHost(kvm.Config{
		Geometry:       testGeometry(),
		Fault:          denseFault(seed),
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 800,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func bootGuest(t *testing.T, h *kvm.Host, size uint64) *guest.OS {
	t.Helper()
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: size, VFIOGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	return guest.Boot(vm)
}

func TestConfigValidate(t *testing.T) {
	good := testAttackConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, breakIt := range []func(*Config){
		func(c *Config) { c.BankMasks = nil },
		func(c *Config) { c.HammerRounds = 0 },
		func(c *Config) { c.HostMemBits = 20 },
	} {
		c := testAttackConfig()
		breakIt(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
}

func TestExploitableBitRange(t *testing.T) {
	cfg := testAttackConfig() // HostMemBits 29
	cases := map[uint]bool{0: false, 12: false, 20: false, 21: true, 28: true, 29: false, 63: false}
	for bit, want := range cases {
		if got := cfg.exploitableBit(bit); got != want {
			t.Errorf("exploitableBit(%d) = %v, want %v", bit, got, want)
		}
	}
}

// Aggressor pairs must genuinely share a DRAM bank and sit in
// consecutive rows — checked against geometry ground truth for every
// pair at several hugepage bases.
func TestAggressorPairsGroundTruth(t *testing.T) {
	cfg := testAttackConfig()
	geo := testGeometry()
	pairs := cfg.aggressorPairs()
	if len(pairs) != 2*cfg.bankClasses() {
		t.Fatalf("pairs = %d, want %d", len(pairs), 2*cfg.bankClasses())
	}
	for _, hugeBase := range []memdef.HPA{0, 2 * memdef.MiB, 100 * memdef.MiB} {
		for i, pr := range pairs {
			a := hugeBase + memdef.HPA(pr[0])
			b := hugeBase + memdef.HPA(pr[1])
			if geo.Bank(a) != geo.Bank(b) {
				t.Fatalf("pair %d at base %#x: banks differ (%d vs %d)", i, hugeBase, geo.Bank(a), geo.Bank(b))
			}
			if geo.Row(b)-geo.Row(a) != 1 {
				t.Fatalf("pair %d at base %#x: rows %d,%d not consecutive", i, hugeBase, geo.Row(a), geo.Row(b))
			}
		}
	}
}

func TestProfileFindsStableExploitableBits(t *testing.T) {
	h := testHost(t, 21)
	gos := bootGuest(t, h, 256*memdef.MiB)
	cfg := testAttackConfig()
	prof, err := Profile(gos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total == 0 {
		t.Fatal("dense fault model yielded no flips")
	}
	if prof.OneToZero+prof.ZeroToOne != prof.Total {
		t.Errorf("direction counts %d+%d != total %d", prof.OneToZero, prof.ZeroToOne, prof.Total)
	}
	if prof.Stable > prof.Total || prof.Exploitable > prof.Total || prof.AttackUsable > prof.Stable {
		t.Errorf("counter ordering violated: %+v", prof)
	}
	if prof.AttackUsable == 0 {
		t.Fatal("no attack-usable bits; pipeline cannot proceed")
	}
	if prof.HammerOps != prof.Buffer.Hugepages*len(cfg.aggressorPairs()) {
		t.Errorf("HammerOps = %d", prof.HammerOps)
	}
	if prof.Duration <= 0 {
		t.Error("no simulated time charged")
	}
	// Early-stop variant finds at least the requested count and runs
	// fewer ops.
	h2 := testHost(t, 21)
	gos2 := bootGuest(t, h2, 256*memdef.MiB)
	cfg2 := cfg
	cfg2.StopAfterExploitable = 2
	prof2, err := Profile(gos2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if prof2.AttackUsable < 2 {
		t.Errorf("early stop found %d usable bits", prof2.AttackUsable)
	}
	if prof2.HammerOps >= prof.HammerOps {
		t.Errorf("early stop ran %d ops, full ran %d", prof2.HammerOps, prof.HammerOps)
	}
}

func TestProfileDeterministic(t *testing.T) {
	run := func() *ProfileResult {
		h := testHost(t, 33)
		gos := bootGuest(t, h, 192*memdef.MiB)
		prof, err := Profile(gos, testAttackConfig())
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	a, b := run(), run()
	if a.Total != b.Total || a.Stable != b.Stable || a.Exploitable != b.Exploitable {
		t.Errorf("profiles differ: %+v vs %+v", a, b)
	}
	if len(a.Bits) == len(b.Bits) {
		for i := range a.Bits {
			if a.Bits[i].Flip != b.Bits[i].Flip {
				t.Errorf("bit %d differs", i)
			}
		}
	}
}

// bigGeometry is a 4 GiB machine: large enough that the EPTE spray
// (one EPT page per guest hugepage) exceeds the post-exhaustion
// leftover noise, the regime the paper's Table 2 operates in.
func bigGeometry() *dram.Geometry {
	return dram.MustGeometry(dram.Geometry{
		Name: "test-4G",
		Size: 4 * memdef.GiB,
		BankMasks: []uint64{
			1<<17 | 1<<21,
			1<<16 | 1<<20,
			1<<15 | 1<<19,
			1<<14 | 1<<18,
			1<<6 | 1<<13,
		},
		RowShift: 18,
		RowBits:  14,
	})
}

func bigHost(t *testing.T, seed uint64) *kvm.Host {
	t.Helper()
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
		t.Fatal(err)
	}
	return h
}

func bigAttackConfig() Config {
	cfg := testAttackConfig()
	cfg.HostMemBits = 32 // 4 GiB host
	// The exhaustion budget must exceed the steady-state residue of
	// PCP-fragmented table pages from prior attempts (~2,400 at this
	// scale), the same reason the paper uses 60,000 mappings on 16 GiB.
	cfg.IOVAMappings = 4000
	cfg.TargetBits = 3 // pool of ~1750 hugepages sustains ~3 bits
	return cfg
}

func TestPageSteerMechanics(t *testing.T) {
	h := bigHost(t, 44)
	gos := bootGuest(t, h, 3584*memdef.MiB)
	cfg := bigAttackConfig()
	prof, err := Profile(gos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victims := prof.ExploitableBits(0)
	if len(victims) == 0 {
		t.Skip("no exploitable bits with this seed")
	}
	noiseBefore := h.NoisePages()
	steer, err := PageSteer(gos, cfg, prof.Buffer, victims)
	if err != nil {
		t.Fatal(err)
	}
	if steer.IOVAMappings != cfg.IOVAMappings {
		t.Errorf("IOVA mappings = %d, want %d", steer.IOVAMappings, cfg.IOVAMappings)
	}
	// Figure 3 mechanics: exhaustion leaves at most ~1024 noise pages
	// (a split order-10 block) regardless of the starting level.
	if noise := h.NoisePages(); noise >= noiseBefore && noise > 1024 {
		t.Errorf("noise pages %d -> %d: exhaustion ineffective", noiseBefore, noise)
	}
	if len(steer.Released) == 0 || len(steer.Released) > cfg.TargetBits {
		t.Errorf("released = %d", len(steer.Released))
	}
	if got := len(h.ReleasedBlockLog()); got != len(steer.Released) {
		t.Errorf("host log %d blocks, steer released %d", got, len(steer.Released))
	}
	if steer.Splits == 0 || steer.Splits != steer.SprayedHugepages {
		t.Errorf("splits %d of %d sprayed", steer.Splits, steer.SprayedHugepages)
	}
	// The Table 2 ground truth: some released pages must now hold EPT
	// pages after a full-memory spray against exhausted free lists.
	stats := gos.VM().EPTReuse()
	if stats.ReusedPages == 0 {
		t.Errorf("no released pages reused by EPTs: %+v", stats)
	}
	if stats.EPTPages < steer.Splits {
		t.Errorf("EPT pages %d < splits %d", stats.EPTPages, steer.Splits)
	}
}

func TestExploitPipelineCounts(t *testing.T) {
	h := bigHost(t, 55)
	gos := bootGuest(t, h, 3584*memdef.MiB)
	cfg := bigAttackConfig()
	prof, err := Profile(gos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victims := prof.ExploitableBits(0)
	if len(victims) == 0 {
		t.Skip("no exploitable bits with this seed")
	}
	steer, err := PageSteer(gos, cfg, prof.Buffer, victims)
	if err != nil {
		t.Fatal(err)
	}
	expl, err := Exploit(gos, cfg, prof.Buffer, steer)
	if err != nil {
		t.Fatal(err)
	}
	if expl.HammeredBits != len(steer.Released) {
		t.Errorf("hammered %d of %d released", expl.HammeredBits, len(steer.Released))
	}
	if expl.CandidateEPTPages > expl.MappingChanges {
		t.Errorf("candidates %d > changes %d", expl.CandidateEPTPages, expl.MappingChanges)
	}
	if expl.ConfirmedEPTPages > expl.CandidateEPTPages {
		t.Errorf("confirmed %d > candidates %d", expl.ConfirmedEPTPages, expl.CandidateEPTPages)
	}
	if expl.Success() != (expl.Escape != nil) {
		t.Error("Success inconsistent with Escape")
	}
}

// The headline integration test: a full campaign on a small host must
// eventually escape the VM and read a host-planted secret that was
// never mapped into any guest.
func TestCampaignEndToEndEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-attempt campaign")
	}
	h := bigHost(t, 61)
	secretHPA := h.PlantSecret(0x5EC2E7C0FFEE)
	cfg := bigAttackConfig()
	res, err := RunCampaign(h, CampaignConfig{
		Attack:      cfg,
		VM:          kvm.VMConfig{MemSize: 3584 * memdef.MiB, VFIOGroups: 1},
		MaxAttempts: 300,
		VerifyHPA:   secretHPA,
		VerifyValue: 0x5EC2E7C0FFEE,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes == 0 {
		t.Fatalf("no success in %d attempts (profiled bits: %d)", len(res.Attempts), res.ProfiledBits)
	}
	t.Logf("escape at attempt %d of %d; avg attempt %v; profile %v",
		res.FirstSuccessAttempt, len(res.Attempts), res.AvgAttemptTime(), res.ProfileDuration)
	if res.FirstSuccessAttempt != len(res.Attempts) {
		t.Errorf("stop-at-first-success kept going")
	}
	if res.TimeToFirstSuccess <= 0 || res.AvgAttemptTime() <= 0 {
		t.Error("timing not recorded")
	}
}

func TestAnalysisBound(t *testing.T) {
	// The paper's numbers: 13 GiB VM on 16 GiB host.
	p := SuccessBound(13*memdef.GiB, 16*memdef.GiB)
	if p < 1.0/700 || p > 1.0/500 {
		t.Errorf("bound = %v, want near 1/630", p)
	}
	if got := ExpectedAttempts(13*memdef.GiB, 16*memdef.GiB); got < 500 || got > 700 {
		t.Errorf("expected attempts = %v", got)
	}
	if SuccessBound(1, 0) != 0 || ExpectedAttempts(1, 0) != 0 {
		t.Error("degenerate inputs not handled")
	}
}

func TestEndToEndEstimateMatchesPaperArithmetic(t *testing.T) {
	// Section 5.3.3 for S1: 12/96 * 72h = 9h per attempt; 512 attempts
	// = 192 days.
	est := EndToEndEstimate(72*3600e9, 96, 12, 512)
	days := est.Hours() / 24
	if days < 191 || days > 193 {
		t.Errorf("S1 estimate = %.1f days, want 192", days)
	}
	// S2: 12/90 * 48h * 512 = ~137 days.
	est2 := EndToEndEstimate(48*3600e9, 90, 12, 512)
	days2 := est2.Hours() / 24
	if days2 < 135 || days2 > 138 {
		t.Errorf("S2 estimate = %.1f days, want ~137", days2)
	}
	if EndToEndEstimate(1, 0, 1, 1) != 0 {
		t.Error("zero exploitable bits not handled")
	}
}

func TestMonteCarloRespectsScale(t *testing.T) {
	mc := MonteCarloSuccess(MonteCarloConfig{
		Seed: 9, Samples: 200_000,
		EPTPages: 6656, HostFrames: 4 << 20,
		ExploitableBitLow: 21, ExploitableBitHigh: 34,
	})
	density := 6656.0 / float64(4<<20)
	if mc < density/2 || mc > density*2 {
		t.Errorf("Monte Carlo %v far from density %v", mc, density)
	}
	if MonteCarloSuccess(MonteCarloConfig{}) != 0 {
		t.Error("degenerate config not handled")
	}
}

// Campaigns must be bit-for-bit reproducible: same seeds, same host,
// same outcome — the property every experiment in this repository
// stands on.
func TestCampaignDeterministic(t *testing.T) {
	run := func() *CampaignResult {
		h := bigHost(t, 61)
		secret := h.PlantSecret(0xD15EA5E)
		res, err := RunCampaign(h, CampaignConfig{
			Attack:      bigAttackConfig(),
			VM:          kvm.VMConfig{MemSize: 3584 * memdef.MiB, VFIOGroups: 1},
			MaxAttempts: 10,
			VerifyHPA:   secret,
			VerifyValue: 0xD15EA5E,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ProfiledBits != b.ProfiledBits || len(a.Attempts) != len(b.Attempts) {
		t.Fatalf("campaign shapes differ: %d/%d bits, %d/%d attempts",
			a.ProfiledBits, b.ProfiledBits, len(a.Attempts), len(b.Attempts))
	}
	for i := range a.Attempts {
		if a.Attempts[i] != b.Attempts[i] {
			t.Errorf("attempt %d differs: %+v vs %+v", i, a.Attempts[i], b.Attempts[i])
		}
	}
}
