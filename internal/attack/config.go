// Package attack implements HyperHammer itself — the paper's primary
// contribution. It contains the three attack steps of Section 4:
//
//   - memory profiling (Profile): find Rowhammer-vulnerable bits in
//     the VM's memory using the THP low-21-bit address correspondence,
//   - Page Steering (PageSteer): exhaust the host's small unmovable
//     free blocks through vIOMMU, voluntarily release the vulnerable
//     hugepages through the modified virtio-mem driver, and force the
//     hypervisor to allocate EPT pages onto them by triggering the
//     iTLB Multihit countermeasure,
//   - exploitation (Exploit): hammer the steered EPTEs, detect mapping
//     changes via magic values, identify and validate stolen EPT
//     pages, and escalate to arbitrary host memory access.
//
// All attack code operates exclusively through the guest.OS interface:
// it sees only what a malicious tenant sees. The sole exception is the
// GPA-to-HPA debug hypercall, which the paper itself adds for the
// Section 5.3.2 experiment and which only Campaign uses to reuse
// profiling results across VM respawns.
package attack

import (
	"fmt"
	"math/bits"
	"time"

	"hyperhammer/internal/forensics"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/trace"
)

// Config holds the attacker's parameters and platform knowledge.
type Config struct {
	// BankMasks is the DRAM bank function recovered with a
	// DRAMDig-style tool on the same processor model (Section 5.1).
	// Only bits below 21 matter to the attacker: within a THP-backed
	// hugepage they determine relative bank equality.
	BankMasks []uint64
	// HammerRounds is the activation count per hammer pattern
	// (250,000 in the evaluation).
	HammerRounds int
	// HostMemBits is ceil(log2(host memory size)); flips above it in
	// a PFN would point outside physical memory (Section 4.1). The
	// attacker knows the machine's nominal memory size.
	HostMemBits uint
	// TargetBits is the number of vulnerable bits exploited per
	// attempt (12 in the evaluation: 12 GiB of guest memory at 1 GiB
	// per bit).
	TargetBits int
	// IOVAMappings is the number of 2 MiB-spaced DMA mappings used to
	// exhaust noise pages (60,000 in the evaluation).
	IOVAMappings int
	// ProfileHugepages caps how many 2 MiB hugepages the profiler
	// allocates (0 = all available guest memory).
	ProfileHugepages int
	// StopAfterExploitable ends profiling early once this many
	// stable exploitable bits are found (0 = full profile). The
	// end-to-end attack stops at TargetBits (Section 5.3.3).
	StopAfterExploitable int
	// SpraySeed, when nonzero, sprays the EPTE-creation buffer in a
	// seeded-random hugepage order instead of sequentially. Varying
	// the seed across attempts redraws which guest chunk's EPT page
	// lands on the vulnerable frame — and therefore the EPTE bit
	// value at the vulnerable position, which must oppose the cell's
	// fixed flip direction for the flip to land (Section 4.3,
	// "Improving Success Rates"). The ordering is entirely under the
	// attacker's control.
	SpraySeed uint64

	// postMarkHook, when set, runs between Exploit's magic-marking
	// pass and its hammering pass. Test-only: it lets rigged-flip
	// tests inject the exact memory state a successful flip produces
	// at the moment a real flip would land.
	postMarkHook func()

	// scratch, when set by RunCampaign, carries per-attempt reusable
	// buffers so hundreds of attempts don't re-allocate their working
	// sets. Nil for standalone PageSteer/Exploit calls.
	scratch *attemptScratch

	// Trace, when non-nil, receives span.* phase events for the attack
	// steps. RunCampaign defaults it to the host's recorder.
	Trace *trace.Recorder
	// Span, when non-nil, is the parent under which this invocation's
	// phase spans nest. RunCampaign threads the campaign span into the
	// profile and the attempt span into steering and exploitation, so a
	// recorded trace attributes every phase to the attempt that ran it
	// even when campaigns overlap. Left nil, phases open as root spans.
	Span *trace.Span
	// Metrics, when non-nil, receives attack counters and the
	// attack_phase_seconds phase-timing histogram. RunCampaign defaults
	// it to the host's registry.
	Metrics *metrics.Registry
	// Forensics, when non-nil, receives campaign/attempt lifecycle and
	// per-attempt outcome facts for the flip-provenance plane.
	// RunCampaign defaults it to the host's recorder.
	Forensics *forensics.Recorder
	// Ledger, when non-nil, receives each attempt's (index, outcome)
	// pair on the "attack.outcome" determinism stream. RunCampaign
	// defaults it to the host's recorder.
	Ledger *ledger.Recorder
}

// Fixed attack parameters, the same on both evaluated machines.
const (
	// rowShift is the lowest physical address bit of the DRAM row
	// number, recovered offline like the bank function.
	rowShift = 18
	// rowSpan is the size of one DRAM row-span (the stride between
	// consecutive row numbers), 256 KiB.
	rowSpan = 1 << rowShift
	// rowsPerHuge is how many row-spans one hugepage contains (8).
	rowsPerHuge = memdef.HugePageSize / rowSpan
	// stabilityRetests is how many re-hammers a bit must survive to be
	// considered stable.
	stabilityRetests = 3
	// iovaBase is the first I/O virtual address used for free-list
	// exhaustion.
	iovaBase memdef.IOVA = 0x1_0000_0000
)

// PhaseBuckets is the attack_phase_seconds histogram layout: the
// paper's phases span minutes (steering) to days (profiling).
var PhaseBuckets = []float64{
	60, 300, 900, 1800, 3600, 2 * 3600, 6 * 3600, 12 * 3600,
	24 * 3600, 2 * 24 * 3600, 4 * 24 * 3600, 7 * 24 * 3600,
}

// startSpan opens a phase span nested under c.Span when one is set,
// falling back to a root span on c.Trace.
func (c Config) startSpan(name string, kv ...any) *trace.Span {
	if c.Span != nil {
		return c.Span.StartChild(name, kv...)
	}
	return c.Trace.StartSpan(name, kv...)
}

// observePhase records one phase duration (simulated) in the
// attack_phase_seconds histogram.
func (c Config) observePhase(phase string, d time.Duration) {
	c.Metrics.Histogram("attack_phase_seconds",
		"Simulated wall time spent per attack phase.",
		PhaseBuckets, "phase", phase).ObserveDuration(d)
}

// DefaultConfig returns the evaluation parameters of Section 5 for a
// 16 GiB host. bankMasks is the platform-specific bank function.
func DefaultConfig(bankMasks []uint64) Config {
	return Config{
		BankMasks:    bankMasks,
		HammerRounds: 250_000,
		HostMemBits:  34,
		TargetBits:   12,
		IOVAMappings: 60_000,
	}
}

// Validate checks the configuration for obvious mistakes.
func (c Config) Validate() error {
	if len(c.BankMasks) == 0 {
		return fmt.Errorf("attack: no bank masks configured")
	}
	if c.HammerRounds <= 0 {
		return fmt.Errorf("attack: hammer rounds %d", c.HammerRounds)
	}
	if c.HostMemBits <= memdef.HugePageShift {
		return fmt.Errorf("attack: host memory bits %d too small", c.HostMemBits)
	}
	return nil
}

// bankClass computes the relative DRAM bank class of an offset within
// a 2 MiB hugepage. Because every bank-function bit below 21 is
// preserved by THP translation, two offsets of the same hugepage with
// equal classes are guaranteed to share a physical DRAM bank — the
// observation that makes profiling tractable (Section 4.1).
func (c Config) bankClass(off uint64) int {
	const low21 = uint64(1)<<memdef.HugePageShift - 1
	cls := 0
	for i, m := range c.BankMasks {
		cls |= int(bits.OnesCount64(off&m&low21)&1) << i
	}
	return cls
}

// bankClasses returns the number of distinguishable bank classes.
func (c Config) bankClasses() int { return 1 << len(c.BankMasks) }

// exploitableBit reports whether a flip at the given bit position of
// an 8-byte-aligned group would usefully corrupt an EPTE: PFN bits
// that move the mapping beyond the flip's own 2 MiB page but stay
// inside physical memory, i.e. bits 21..HostMemBits-1 (Section 4.1).
func (c Config) exploitableBit(bit uint) bool {
	return bit >= memdef.HugePageShift && bit < c.HostMemBits
}
