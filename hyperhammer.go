// Package hyperhammer is a full-system simulation and reproduction of
// "HyperHammer: Breaking Free from KVM-Enforced Isolation" (ASPLOS
// 2025): a Rowhammer attack in which a malicious hardware VM escapes
// KVM's EPT-enforced memory isolation and gains arbitrary access to
// host physical memory.
//
// The package simulates the entire stack the paper runs on — DDR4 DRAM
// with a seeded Rowhammer fault model, the Linux buddy allocator with
// migration types and per-CPU pagesets, KVM with 4-level EPTs,
// transparent hugepages and the iTLB-Multihit NX-hugepage
// countermeasure, virtio-mem, VFIO/vIOMMU — and runs the paper's
// attack, unchanged in structure, against it:
//
//	host, _ := hyperhammer.NewHost(hyperhammer.S1(1))
//	vm, _ := host.CreateVM(hyperhammer.VMConfig{
//		MemSize: 13 * hyperhammer.GiB, VFIOGroups: 1,
//	})
//	gos := hyperhammer.BootGuest(vm)
//	cfg := hyperhammer.DefaultAttackConfig(hyperhammer.S1BankFunction())
//	prof, _ := hyperhammer.Profile(gos, cfg)
//	steer, _ := hyperhammer.PageSteer(gos, cfg, prof.Buffer, prof.ExploitableBits(12))
//	expl, _ := hyperhammer.Exploit(gos, cfg, prof.Buffer, steer)
//	if expl.Success() {
//		secret, _ := expl.Escape.ReadHost(0x1234000) // any host address
//		_ = secret
//	}
//
// Attack code touches the host only through the guest interface; bit
// flips are committed to the simulated physical memory and corrupt
// whatever lives there, so a successful escape is a genuine
// translation-level breach of the simulated hypervisor, not a scripted
// outcome. See DESIGN.md for the fidelity rules and EXPERIMENTS.md for
// the paper-versus-measured comparison of every table and figure.
package hyperhammer

import (
	"io"

	"hyperhammer/internal/attack"
	"hyperhammer/internal/dram"
	"hyperhammer/internal/dramdig"
	"hyperhammer/internal/forensics"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/hammer"
	"hyperhammer/internal/hostload"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/mitigation"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/sched"
	"hyperhammer/internal/trace"
	"hyperhammer/internal/virtio"
	"hyperhammer/internal/xenlite"
)

// Size constants re-exported for configuration literals.
const (
	KiB = memdef.KiB
	MiB = memdef.MiB
	GiB = memdef.GiB

	// PageSize and HugePageSize are the 4 KiB / 2 MiB page sizes.
	PageSize     = memdef.PageSize
	HugePageSize = memdef.HugePageSize
)

// Address-space types. HPA is host-physical, GPA guest-physical, GVA
// guest-virtual, IOVA I/O-virtual; PFN is a host frame number.
type (
	HPA  = memdef.HPA
	GPA  = memdef.GPA
	GVA  = memdef.GVA
	IOVA = memdef.IOVA
	PFN  = memdef.PFN
)

// Core machine types.
type (
	// Host is the simulated KVM hypervisor machine.
	Host = kvm.Host
	// HostConfig configures a host (DRAM geometry, fault model,
	// THP, NX-hugepage countermeasure, boot noise, quarantine).
	HostConfig = kvm.Config
	// VM is one guest virtual machine.
	VM = kvm.VM
	// VMConfig shapes a guest (memory size, VFIO groups).
	VMConfig = kvm.VMConfig
	// GuestOS is the attacker-visible guest runtime.
	GuestOS = guest.OS
	// Geometry is a DRAM addressing model.
	Geometry = dram.Geometry
	// FaultModel parameterizes the Rowhammer-vulnerable cell
	// population of the installed DIMMs.
	FaultModel = dram.FaultModelConfig
	// TRRConfig enables the in-DRAM Target Row Refresh mitigation
	// model on a FaultModel.
	TRRConfig = dram.TRRConfig
	// HostWorkload is a background host load profile (S3 modelling).
	HostWorkload = hostload.Profile
)

// Attack types.
type (
	// AttackConfig is the attacker's parameters and platform
	// knowledge.
	AttackConfig = attack.Config
	// ProfileResult is the memory-profiling outcome (Table 1).
	ProfileResult = attack.ProfileResult
	// SteerResult is the Page Steering outcome (Table 2, Figures 1-3).
	SteerResult = attack.SteerResult
	// ExploitResult is the exploitation outcome; on success it holds
	// an EscapeHandle with arbitrary host memory access.
	ExploitResult = attack.ExploitResult
	// EscapeHandle reads and writes arbitrary host physical memory
	// through a stolen EPT page.
	EscapeHandle = attack.EscapeHandle
	// VulnBit is one profiled Rowhammer-vulnerable bit.
	VulnBit = attack.VulnBit
	// Buffer describes the attacker's large THP allocation.
	Buffer = attack.Buffer
	// CampaignConfig drives repeated respawn-and-retry attempts
	// (Table 3).
	CampaignConfig = attack.CampaignConfig
	// CampaignResult summarizes a campaign.
	CampaignResult = attack.CampaignResult
)

// NewHost boots a simulated host machine.
func NewHost(cfg HostConfig) (*Host, error) { return kvm.NewHost(cfg) }

// NewGeometry validates and finishes a custom DRAM geometry (size and
// bank masks; rows start at address bit 18 as on S1/S2) for hosts
// beyond the built-in S1/S2 machines.
func NewGeometry(g Geometry) (*Geometry, error) { return dram.NewGeometry(g) }

// TraceRecorder receives structured host-side events; install one via
// HostConfig.Trace.
type TraceRecorder = trace.Recorder

// MetricsRegistry collects counters, gauges and histograms from every
// instrumented subsystem. Install one via HostConfig.Metrics; the host
// binds its simulated clock at boot, so exported rates are per
// simulated second. A nil registry disables all instrumentation at
// zero cost.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a deterministic point-in-time export of every
// metric series.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics creates an empty metrics registry.
func NewMetrics() *MetricsRegistry { return metrics.New() }

// NewTrace creates a trace recorder writing JSON lines to w (nil for
// in-memory only); keep bounds the in-memory ring. Install it via
// HostConfig.Trace; the host binds its simulated clock at boot.
func NewTrace(w io.Writer, keep int) *TraceRecorder {
	return trace.New(w, keep)
}

// TraceSpan is one open phase span; open roots with
// TraceRecorder.StartSpan and children with Span.StartChild.
type TraceSpan = trace.Span

// Inspector is the hardware introspection plane: bucketed DRAM
// activation/flip heatmaps, memory-layout censuses, and the sim-time
// alerts of five fixed watchpoints (row pressure past the flip
// threshold, TRR neutralizations, NX-hugepage split onset, applied
// flips, host machine checks). Install one via
// HostConfig.Inspect (every host boot sizes the heatmap and arms
// watchpoint evaluation on its clock) and embed its snapshots in a
// RunArtifact with RunArtifact.SetInspector; hh run and hh tables
// serve it live at /api/heatmap, /api/census and /api/alerts under
// -obs.
type Inspector = inspect.Inspector

// InspectConfig is NewInspector's argument. It has no fields: the
// heatmap buckets, the alert ring bound, the evaluation cadence and the
// watchpoints are all fixed. It is kept so existing
// NewInspector(InspectConfig{}) calls compile unchanged.
type InspectConfig struct{}

// NewInspector creates a hardware introspection plane.
func NewInspector(InspectConfig) *Inspector { return inspect.New() }

// ForensicsRecorder is the flip-provenance plane: per-attempt causal
// flip lineage (aggressors → verdict → owning frame), campaign outcome
// taxonomies, and one-line cause synthesis. Install one via
// HostConfig.Forensics (every host boot binds its clock and installs
// the DRAM flip sink) and embed its snapshot in a RunArtifact with
// RunArtifact.SetForensics for hh why to read offline; hh serves it
// live at /api/forensics under -obs.
type ForensicsRecorder = forensics.Recorder

// ForensicsConfig is NewForensics's argument. It has no fields: the
// per-attempt flip detail bound is fixed. It is kept so existing
// NewForensics(ForensicsConfig{}) calls compile unchanged.
type ForensicsConfig struct{}

// ForensicsSnapshot is one serialized view of a ForensicsRecorder.
type ForensicsSnapshot = forensics.Snapshot

// NewForensics creates a flip-provenance recorder.
func NewForensics(ForensicsConfig) *ForensicsRecorder { return forensics.New() }

// LedgerRecorder is the determinism-ledger plane: rolling per-stream
// fingerprints of every deterministic event source (RNG draws, DRAM
// row/flip events, allocator traffic, EPT and guest-mapping mutations,
// attack outcomes), sealed into sim-time epochs. Install one via
// HostConfig.Ledger (every host boot binds its clock and resolves the
// subsystem streams) and embed its snapshot in a RunArtifact with
// RunArtifact.SetLedger for hh bisect to localize divergence offline;
// hh serves it live at /api/ledger under -obs.
type LedgerRecorder = ledger.Recorder

// LedgerConfig tunes a LedgerRecorder's epoch interval; the zero value
// records final fingerprints only, sealing no epochs.
type LedgerConfig = ledger.Config

// LedgerSnapshot is one serialized view of a LedgerRecorder.
type LedgerSnapshot = ledger.Snapshot

// NewLedger creates a determinism-ledger recorder.
func NewLedger(cfg LedgerConfig) *LedgerRecorder { return ledger.New(cfg) }

// CostProfiler folds the span trace into a per-phase simulated-time
// cost profile (see internal/profile). Feed one by attaching it to a
// trace recorder with TraceRecorder.SetNamedSink("profile", p.Consume);
// hh serves it live at /api/profile under -obs.
type CostProfiler = profile.Builder

// CostProfile is one folded snapshot of a CostProfiler: per-span-path
// simulated time, DRAM activations, and hammer rounds, exportable as
// flamegraph folded stacks or gzipped pprof protobuf.
type CostProfile = profile.Profile

// NewCostProfiler creates a cost profiler charging the registry's DRAM
// and hammer counters to the open span (reg may be nil for a
// sim-time-only profile).
func NewCostProfiler(reg *MetricsRegistry) *CostProfiler {
	return profile.NewBuilder(reg)
}

// HostSchedule is the host-cost record of one scheduled batch: which
// worker ran each unit and when (host wall clock), plus the batch's
// wall and CPU totals. experiments.Plan captures one per Run; it is
// pure host observation and never feeds simulated output.
type HostSchedule = sched.Schedule

// PlanReport is the host-cost analysis derived from a HostSchedule:
// per-unit timings and slack, the critical path, and the
// parallel-efficiency figures. It is the artifact's `plan` section and
// what /api/plan and hh plan serve and render.
type PlanReport = profile.PlanReport

// BuildPlanReport derives the critical-path and parallel-efficiency
// analysis from a batch schedule (nil-safe: returns an empty report).
func BuildPlanReport(sc *HostSchedule) *PlanReport { return profile.BuildPlanReport(sc) }

// WriteChromeTrace exports a host schedule as Chrome trace_event JSON
// (one track per worker plus the delivery track), loadable in Perfetto
// or chrome://tracing.
func WriteChromeTrace(w io.Writer, sc *HostSchedule) error {
	return trace.WriteChromeTrace(w, sc)
}

// RunArtifact is the self-describing run bundle the CLIs write with
// -artifact and hh diff compares (see internal/runartifact).
type RunArtifact = runartifact.Artifact

// NewRunArtifact returns an artifact shell for the given producing
// tool, seed, and scale ("short" or "full").
func NewRunArtifact(tool string, seed uint64, scale string) *RunArtifact {
	return runartifact.New(tool, seed, scale)
}

// BootGuest starts the guest OS runtime on a VM.
func BootGuest(vm *VM) *GuestOS { return guest.Boot(vm) }

// S1 returns the configuration of evaluation machine S1: Intel Core
// i3-10100, 16 GiB DDR4-2666, THP and NX-hugepages on, plain KVM.
func S1(seed uint64) HostConfig {
	return HostConfig{
		Geometry:       dram.CoreI310100(),
		Fault:          dram.S1FaultModel(seed),
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 30000,
		Seed:           seed,
	}
}

// S2 returns the configuration of machine S2: Intel Xeon E3-2124 with
// the same DIMMs and software stack.
func S2(seed uint64) HostConfig {
	cfg := S1(seed)
	cfg.Geometry = dram.XeonE32124()
	cfg.Fault = dram.S2FaultModel(seed)
	cfg.BootNoisePages = 34000
	return cfg
}

// S3 returns the configuration of machine S3: the S1 hardware running
// a single-node OpenStack (DevStack) deployment. Attach the returned
// workload profile with AttachWorkload to reproduce S3's much higher
// noise level (Figure 3b).
func S3(seed uint64) (HostConfig, HostWorkload) {
	cfg := S1(seed)
	cfg.BootNoisePages = 12000 // base host noise; OpenStack adds the rest
	return cfg, hostload.OpenStack()
}

// AttachWorkload starts a background host workload (e.g. the S3
// OpenStack profile) on a host.
func AttachWorkload(h *Host, p HostWorkload, seed uint64) (*hostload.Workload, error) {
	return hostload.Attach(h.Buddy, p, seed)
}

// S1BankFunction returns the DRAM bank function of the i3-10100 as the
// attacker knows it (recovered offline with DRAMDig, Section 5.1).
func S1BankFunction() []uint64 { return dram.CoreI310100().BankMasks }

// S2BankFunction returns the Xeon E3-2124 bank function.
func S2BankFunction() []uint64 { return dram.XeonE32124().BankMasks }

// DefaultAttackConfig returns the paper's evaluation parameters for a
// 16 GiB host with the given bank function.
func DefaultAttackConfig(bankMasks []uint64) AttackConfig {
	return attack.DefaultConfig(bankMasks)
}

// Profile runs the memory-profiling step (Section 4.1).
func Profile(os *GuestOS, cfg AttackConfig) (*ProfileResult, error) {
	return attack.Profile(os, cfg)
}

// PageSteer runs the Page Steering step (Section 4.2).
func PageSteer(os *GuestOS, cfg AttackConfig, buf Buffer, victims []VulnBit) (*SteerResult, error) {
	return attack.PageSteer(os, cfg, buf, victims)
}

// Exploit runs the exploitation step (Section 4.3).
func Exploit(os *GuestOS, cfg AttackConfig, buf Buffer, steer *SteerResult) (*ExploitResult, error) {
	return attack.Exploit(os, cfg, buf, steer)
}

// RunCampaign runs the repeated-attempt experiment of Section 5.3.2.
func RunCampaign(h *Host, cfg CampaignConfig) (*CampaignResult, error) {
	return attack.RunCampaign(h, cfg)
}

// SuccessBound returns the Section 5.3.1 success-probability bound.
func SuccessBound(guestMem, hostMem uint64) float64 {
	return attack.SuccessBound(guestMem, hostMem)
}

// ExpectedAttempts is the reciprocal of SuccessBound.
func ExpectedAttempts(guestMem, hostMem uint64) float64 {
	return attack.ExpectedAttempts(guestMem, hostMem)
}

// Quarantine returns the paper's Section 6 countermeasure as a guard
// installable via HostConfig.Quarantine, plus its decision counters.
func Quarantine() (virtio.Guard, *mitigation.Stats) {
	return mitigation.Quarantine()
}

// ErrNACK is the virtio-mem device's refusal of a guest request, e.g.
// one the quarantine countermeasure rejected.
var ErrNACK = virtio.ErrNACK

// GuestDriver is the guest kernel's virtio-mem driver.
type GuestDriver = virtio.GuestDriver

// NewGuestDriver attaches a stock virtio-mem driver to a device (for
// modelling honest guests; BootGuest attaches the attacker's).
func NewGuestDriver(dev *virtio.MemDevice) *GuestDriver {
	return virtio.NewGuestDriver(dev)
}

// RecoverBankFunction reverse engineers a DRAM bank function from
// row-buffer timing, the DRAMDig step of Section 5.1.
func RecoverBankFunction(geo *Geometry, seed uint64) (dramdig.Result, error) {
	timing := dram.NewTiming(geo, seed)
	return dramdig.Recover(timing, dramdig.Config{Seed: seed, MemSize: geo.Size})
}

// FindHammerPattern runs the TRRespass-style pattern search of Section
// 5.1 inside a guest and returns the most effective pattern.
func FindHammerPattern(os *GuestOS, bankMasks []uint64) (hammer.Result, error) {
	results, err := hammer.Search(os, hammer.Config{
		BankMasks: bankMasks,
		Hugepages: 64,
		Repeats:   3,
	}, hammer.DefaultPatterns())
	if err != nil {
		return hammer.Result{}, err
	}
	best, _ := hammer.Best(results)
	return best, nil
}

// XenHeap creates a Xen-style domain heap for the Section 6
// comparison.
func XenHeap(start PFN, pages uint64) *xenlite.Heap { return xenlite.NewHeap(start, pages) }
