// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5), plus the Section 6 analyses and a
// set of ablations for the design choices DESIGN.md calls out. Each
// experiment is a Plan registrar: it adds its independent units to the
// plan and returns a future that resolves, after Plan.Run, to both
// structured data and a formatted table or figure. The hh tables
// command and the benchmark harness in the repository root drive them.
//
// Absolute numbers come from the simulated substrate, so they match
// the paper's *shape* — who wins, by what rough factor, where the
// thresholds sit — rather than its exact values; EXPERIMENTS.md
// records the comparison.
package experiments

import (
	"hyperhammer"
	"hyperhammer/internal/attack"
	"hyperhammer/internal/dram"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/obs"
	"hyperhammer/internal/scope"
)

// Options control experiment scale and determinism.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Short runs a reduced-scale variant (smaller machines, fewer
	// attempts) for CI; the full scale reproduces the paper's
	// machine sizes.
	Short bool
	// MaxAttempts caps the Table 3 campaigns (0 = scale default).
	MaxAttempts int
	// Parallel is the experiment engine's worker-pool size: how many
	// independent units (hosts) run concurrently. 0 selects GOMAXPROCS.
	// Results are byte-identical at every value — units run against
	// scoped telemetry and are folded in declaration order (see
	// plan.go).
	Parallel int
	// Scope holds the recorder planes every booted host feeds: trace,
	// metrics, introspection, forensics and the determinism ledger.
	// Each scheduled unit runs against its own scope (Scope.Unit) and
	// completed units are absorbed into this one in declaration order,
	// so every plane is byte-identical at any Parallel setting, and
	// sim_seconds accumulates across hosts instead of reflecting only
	// the most recent boot.
	scope.Scope
	// Obs, when non-nil, is the live observability plane. Concurrent
	// units never drive its sampler directly (their telemetry is
	// scoped); the engine samples the shared registry once per
	// completed unit, tagging the series points with the unit's name.
	Obs *obs.Plane
}

// System identifies one evaluation setup.
type System int

// The paper's three systems (Section 5).
const (
	// SystemS1 is the Intel Core i3-10100 host with plain KVM.
	SystemS1 System = iota
	// SystemS2 is the Intel Xeon E3-2124 host with plain KVM.
	SystemS2
	// SystemS3 is the S1 hardware running single-node OpenStack.
	SystemS3
)

// String returns the paper's name for the system.
func (s System) String() string {
	switch s {
	case SystemS1:
		return "S1"
	case SystemS2:
		return "S2"
	case SystemS3:
		return "S3"
	default:
		return "S?"
	}
}

// scale bundles the machine dimensions an experiment runs at.
type scale struct {
	// short shrinks each paper machine to a 4 GiB host (shortMachine).
	short       bool
	vmSize      uint64
	profileSize uint64
	iovaMaps    int
	targetBits  int
	hostMemBits uint
	bootSplits  int
}

// fullScale is the paper's configuration: its 16 GiB machines S1-S3
// as the hyperhammer package defines them, a 13 GiB VM, 12 GiB
// profiled, 60,000 exhaustion mappings, 12 target bits.
func fullScale() scale {
	return scale{
		vmSize:      13 * memdef.GiB,
		profileSize: 12 * memdef.GiB,
		iovaMaps:    60000,
		targetBits:  12,
		hostMemBits: 34,
		bootSplits:  500,
	}
}

// shortScale is a 4 GiB host / 3.5 GiB VM variant with a denser fault
// model so CI runs exercise the same dynamics in seconds.
func shortScale() scale {
	return scale{
		short:       true,
		vmSize:      3584 * memdef.MiB,
		profileSize: 3 * memdef.GiB,
		iovaMaps:    6000,
		targetBits:  3,
		hostMemBits: 32,
		bootSplits:  150,
	}
}

func (o Options) scale() scale {
	if o.Short {
		return shortScale()
	}
	return fullScale()
}

// Machine returns paper machine sys at o's scale: the host
// configuration, with o's seed and scope, the attacker VM and the
// attack configuration that Tables 1-3 and Figure 3 boot. hh run, the
// step demos and examples/cloudtenant boot through it too.
func (o Options) Machine(sys System) (kvm.Config, kvm.VMConfig, attack.Config) {
	sc := o.scale()
	cfg, acfg := o.machine(sc, sys)
	cfg.Scope = o.Scope
	return cfg, kvm.VMConfig{MemSize: sc.vmSize, VFIOGroups: 1, BootSplits: sc.bootSplits}, acfg
}

// machine is the one host configuration every unit boots from, with
// its attack configuration: machine sys at scale sc with THP and NX
// hugepages on, a host seed derived from o.Seed and the system, the
// ledgerless scope, and the bank function the attacker recovered
// offline. Units override fields on the returned values.
func (o Options) machine(sc scale, sys System) (kvm.Config, attack.Config) {
	var cfg kvm.Config
	switch sys {
	case SystemS2:
		cfg = hyperhammer.S2(o.Seed)
	case SystemS3:
		cfg, _ = hyperhammer.S3(o.Seed) // newHost attaches the workload
	default:
		cfg = hyperhammer.S1(o.Seed)
	}
	if sc.short {
		shortMachine(&cfg, sys, o.Seed)
	}
	cfg.Seed = o.Seed ^ uint64(sys)<<32
	cfg.Scope = o.ledgerless()
	acfg := attack.DefaultConfig(cfg.Geometry.BankMasks)
	acfg.HostMemBits = sc.hostMemBits
	acfg.IOVAMappings = sc.iovaMaps
	acfg.TargetBits = sc.targetBits
	return cfg, acfg
}

// shortMachine shrinks machine sys to 4 GiB with the same bank
// function, a denser fault model and less boot noise.
func shortMachine(cfg *kvm.Config, sys System, seed uint64) {
	cfg.Geometry = dram.MustGeometry(dram.Geometry{
		Name:      "short-4G (" + sys.String() + ")",
		Size:      4 * memdef.GiB,
		BankMasks: cfg.Geometry.BankMasks,
	})
	cfg.Fault = dram.FaultModelConfig{
		Seed: seed, CellsPerRow: 0.02,
		ThresholdMin: 120_000, ThresholdMax: 400_000,
		StableFraction: 0.54, FlakyP: 0.35,
	}
	cfg.BootNoisePages = 2000
	switch sys {
	case SystemS2:
		cfg.Fault.CellsPerRow = 0.05
		cfg.Fault.StableFraction = 0.1
	case SystemS3:
		cfg.BootNoisePages = 3000
	}
}

// newHost boots machine sys at o's scale with the full scope, ledger
// included, attaching the OpenStack workload for S3. It returns the
// host with the machine's attacker VM and attack configurations.
func (o Options) newHost(sys System) (*kvm.Host, kvm.VMConfig, attack.Config, error) {
	cfg, vm, acfg := o.Machine(sys)
	h, err := kvm.NewHost(cfg)
	if err != nil {
		return nil, vm, acfg, err
	}
	if sys == SystemS3 {
		if err := attachS3Load(h, o); err != nil {
			return nil, vm, acfg, err
		}
	}
	return h, vm, acfg, nil
}

// ledgerless is the scope of every host not booted from Machine: the
// mitigation, TRR, ECC and Multihit units, the THP ablation, the
// short-scale steering ablations, the balloon experiment and the Xen
// comparison.
// Those hosts have never fed the determinism ledger, so hh bisect
// cannot localize drift inside their units. Wiring it would add their
// streams to every ledgered artifact and move the content hashes the
// benchmark's golden file records, so the gap stays until a benchmark
// change re-records them (DESIGN.md §12).
func (o Options) ledgerless() scope.Scope {
	s := o.Scope
	s.Ledger = nil
	return s
}
