package hyperhammer_test

import (
	"errors"
	"testing"

	"hyperhammer"
)

// smallHost builds a 512 MiB S1-flavoured host for fast API tests.
func smallHost(t *testing.T, seed uint64) *hyperhammer.Host {
	t.Helper()
	geo, err := hyperhammer.NewGeometry(hyperhammer.Geometry{
		Name:      "api-test-512M",
		Size:      512 * hyperhammer.MiB,
		BankMasks: hyperhammer.S1BankFunction(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hyperhammer.S1(seed)
	cfg.Geometry = geo
	cfg.BootNoisePages = 500
	host, err := hyperhammer.NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return host
}

func TestPublicAPIPipeline(t *testing.T) {
	host := smallHost(t, 9)
	vm, err := host.CreateVM(hyperhammer.VMConfig{
		MemSize: 384 * hyperhammer.MiB, VFIOGroups: 1, BootSplits: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	gos := hyperhammer.BootGuest(vm)

	cfg := hyperhammer.DefaultAttackConfig(hyperhammer.S1BankFunction())
	cfg.HostMemBits = 29
	cfg.IOVAMappings = 1500
	cfg.TargetBits = 2
	// A dense fault model would live on the host config; the standard
	// S1 model at 512 MiB still yields a handful of bits.
	prof, err := hyperhammer.Profile(gos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total < 0 || prof.HammerOps == 0 {
		t.Fatalf("profile: %+v", prof)
	}
	victims := prof.ExploitableBits(0)
	if len(victims) == 0 {
		t.Skip("no usable bits at this scale/seed; pipeline exercised through Profile")
	}
	steer, err := hyperhammer.PageSteer(gos, cfg, prof.Buffer, victims)
	if err != nil {
		t.Fatal(err)
	}
	expl, err := hyperhammer.Exploit(gos, cfg, prof.Buffer, steer)
	if err != nil {
		t.Fatal(err)
	}
	_ = expl.Success() // either outcome is legitimate for one attempt
}

func TestPublicAPIQuarantine(t *testing.T) {
	guard, stats := hyperhammer.Quarantine()
	geo, _ := hyperhammer.NewGeometry(hyperhammer.Geometry{
		Name: "api-test-512M", Size: 512 * hyperhammer.MiB,
		BankMasks: hyperhammer.S1BankFunction(),
	})
	cfg := hyperhammer.S1(3)
	cfg.Geometry = geo
	cfg.BootNoisePages = 300
	cfg.Quarantine = guard
	host, err := hyperhammer.NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := host.CreateVM(hyperhammer.VMConfig{MemSize: 192 * hyperhammer.MiB, VFIOGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	gos := hyperhammer.BootGuest(vm)
	gos.InstallAttackDriver()
	base, err := gos.AllocHuge(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := gos.ReleaseHugepage(base); !errors.Is(err, hyperhammer.ErrNACK) {
		t.Errorf("quarantined release: %v", err)
	}
	if stats.Blocked == 0 {
		t.Error("no blocked decisions recorded")
	}
}

func TestPublicAPIAnalysis(t *testing.T) {
	bound := hyperhammer.SuccessBound(13*hyperhammer.GiB, 16*hyperhammer.GiB)
	attempts := hyperhammer.ExpectedAttempts(13*hyperhammer.GiB, 16*hyperhammer.GiB)
	if bound <= 0 || attempts < 600 || attempts > 660 {
		t.Errorf("bound=%v attempts=%v", bound, attempts)
	}
}

func TestPublicAPIDRAMDig(t *testing.T) {
	cfg := hyperhammer.S1(1)
	res, err := hyperhammer.RecoverBankFunction(cfg.Geometry, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Banks != 32 || !res.AllBitsBelow(22) {
		t.Errorf("recovery: %+v", res)
	}
}

func TestPublicAPIXenHeap(t *testing.T) {
	heap := hyperhammer.XenHeap(0, 65536)
	dom, err := heap.CreateDomain(64 * hyperhammer.MiB)
	if err != nil {
		t.Fatal(err)
	}
	released, reused, err := dom.SteeringReuse([]hyperhammer.GPA{2 * hyperhammer.MiB}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if released != 512 || reused == 0 {
		t.Errorf("xen steering: released=%d reused=%d", released, reused)
	}
}

func TestPublicAPIHammerPattern(t *testing.T) {
	host := smallHost(t, 5)
	vm, err := host.CreateVM(hyperhammer.VMConfig{MemSize: 256 * hyperhammer.MiB, VFIOGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	gos := hyperhammer.BootGuest(vm)
	best, err := hyperhammer.FindHammerPattern(gos, hyperhammer.S1BankFunction())
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Pattern.RowOffsets) == 0 {
		t.Error("no pattern found")
	}
}
