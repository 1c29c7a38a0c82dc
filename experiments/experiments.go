// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5), plus the Section 6 analyses and a
// set of ablations for the design choices DESIGN.md calls out. Each
// experiment returns both structured data and a formatted table or
// figure, and is driven by the hh tables command and by the benchmark
// harness in the repository root.
//
// Absolute numbers come from the simulated substrate, so they match
// the paper's *shape* — who wins, by what rough factor, where the
// thresholds sit — rather than its exact values; EXPERIMENTS.md
// records the comparison.
package experiments

import (
	"time"

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

// DefaultOptions returns the full-scale deterministic defaults.
func DefaultOptions() Options { return Options{Seed: 1} }

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
	geometry    func(System) *dram.Geometry
	fault       func(System, uint64) dram.FaultModelConfig
	hostNoise   func(System) int
	vmSize      uint64
	profileSize uint64
	iovaMaps    int
	targetBits  int
	hostMemBits uint
	bootSplits  int
}

// fullScale is the paper's configuration: 16 GiB hosts, 13 GiB VM,
// 12 GiB profiled, 60,000 exhaustion mappings, 12 target bits.
func fullScale() scale {
	return scale{
		geometry: func(s System) *dram.Geometry {
			if s == SystemS2 {
				return dram.XeonE32124()
			}
			return dram.CoreI310100()
		},
		fault: func(s System, seed uint64) dram.FaultModelConfig {
			if s == SystemS2 {
				return dram.S2FaultModel(seed)
			}
			return dram.S1FaultModel(seed)
		},
		hostNoise: func(s System) int {
			switch s {
			case SystemS2:
				return 34000
			case SystemS3:
				return 12000 // plus the OpenStack workload's noise
			default:
				return 30000
			}
		},
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
	small := func(s System) *dram.Geometry {
		masks := dram.CoreI310100().BankMasks
		if s == SystemS2 {
			masks = dram.XeonE32124().BankMasks
		}
		return dram.MustGeometry(dram.Geometry{
			Name:      "short-4G (" + s.String() + ")",
			Size:      4 * memdef.GiB,
			BankMasks: masks,
			RowShift:  18,
			RowBits:   14,
		})
	}
	return scale{
		geometry: small,
		fault: func(s System, seed uint64) dram.FaultModelConfig {
			cfg := dram.FaultModelConfig{
				Seed: seed, CellsPerRow: 0.02,
				ThresholdMin: 120_000, ThresholdMax: 400_000,
				StableFraction: 0.54, FlakyP: 0.35,
				NeighborWeight1: 1.0, NeighborWeight2: 0.25,
			}
			if s == SystemS2 {
				cfg.CellsPerRow = 0.05
				cfg.StableFraction = 0.1
			}
			return cfg
		},
		hostNoise: func(s System) int {
			if s == SystemS3 {
				return 3000
			}
			return 2000
		},
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

// newHost boots a host for one system at the chosen scale, attaching
// the OpenStack workload for S3.
func (o Options) newHost(sys System) (*kvm.Host, error) {
	sc := o.scale()
	cfg := kvm.Config{
		Geometry:       sc.geometry(sys),
		Fault:          sc.fault(sys, o.Seed),
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: sc.hostNoise(sys),
		Seed:           o.Seed ^ uint64(sys)<<32,
		Scope:          o.Scope,
		Obs:            o.Obs,
	}
	h, err := kvm.NewHost(cfg)
	if err != nil {
		return nil, err
	}
	if sys == SystemS3 {
		if err := attachS3Load(h, o); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// ledgerless is the scope of the hosts the mitigation, TRR, ECC and
// Multihit units, the THP ablation and newHostAt boot. Those hosts have
// never fed the determinism ledger, so hh bisect cannot localize drift
// inside their units. Wiring it would add their streams to every
// ledgered artifact and move the content hashes the benchmark's golden
// file records, so the gap stays until a benchmark change re-records
// them (DESIGN.md §12).
func (o Options) ledgerless() scope.Scope {
	s := o.Scope
	s.Ledger = nil
	return s
}

// Durations below are shared formatting helpers.
func hours(d time.Duration) float64 { return d.Hours() }
