// Package kvm models the host side of the paper's stack: a Linux/KVM
// hypervisor that owns the physical memory, backs guest VMs with
// transparent hugepages, maintains their extended page tables, applies
// the iTLB Multihit countermeasure (NX hugepages with split-on-exec),
// and exposes virtio-mem and vIOMMU devices.
//
// Everything a guest does reaches physical memory through this
// package, and everything this package allocates comes from the same
// buddy allocator the attacker manipulates — the two facts Page
// Steering depends on.
package kvm

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"hyperhammer/internal/buddy"
	"hyperhammer/internal/dram"
	"hyperhammer/internal/forensics"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/memmap"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/phys"
	"hyperhammer/internal/scope"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/virtio"
)

// Config describes one host machine.
type Config struct {
	// Geometry is the DRAM addressing model (nil selects the S1
	// machine, Intel Core i3-10100 with 16 GiB).
	Geometry *dram.Geometry
	// Fault is the Rowhammer fault model of the installed DIMMs.
	Fault dram.FaultModelConfig
	// THP enables transparent hugepages for guest backing, KVM's
	// default (Section 4.1). Without it guests are backed by
	// scattered 4 KiB pages and the low-21-bit address correspondence
	// is lost.
	THP bool
	// NXHugepages enables the iTLB Multihit countermeasure: guest
	// hugepages are mapped non-executable and split into 4 KiB pages
	// on the first instruction fetch (Section 4.2.3). KVM enables
	// this by default on affected processors.
	NXHugepages bool
	// BootNoisePages is the approximate number of free small-order
	// MIGRATE_UNMOVABLE pages left over after host boot — the initial
	// "noise pages" level of Figure 3. Tens of thousands on a plain
	// KVM host (S1/S2), far more under OpenStack (S3).
	BootNoisePages int
	// ECC enables SECDED error-correcting memory, the server-class
	// configuration the paper's Section 6 notes its evaluation
	// machines lack: single-bit flips are corrected by scrubbing
	// before software ever observes them, and a double-bit error in
	// one 64-bit word raises an uncorrectable machine check that
	// takes the host down.
	ECC bool
	// MultihitBugPresent marks the CPU as affected by the iTLB
	// Multihit erratum (Comet Lake and earlier, Section 4.2.3). With
	// NXHugepages off on an affected CPU, a malicious guest can crash
	// the host — the DoS the countermeasure exists to stop.
	MultihitBugPresent bool
	// Seed drives all host-side randomness (boot noise layout).
	Seed uint64
	// Quarantine, when non-nil, installs the paper's Section 6
	// countermeasure on every virtio-mem device.
	Quarantine virtio.Guard
	// Scope holds the recorder planes the host feeds, each optional. At
	// boot the host binds Metrics to its simulated clock and threads it
	// through every instrumented layer (DRAM, buddy, EPT, virtio,
	// balloon, hammer); binds the Ledger and resolves its fingerprint
	// streams across every subsystem in a fixed declaration order
	// (kvm.rng, kvm.flip, then dram, phys, buddy, ept, guest) before
	// boot noise is drawn; binds Trace for host-side events (VM
	// lifecycle, releases, splits, applied flips, machine checks);
	// sizes the Inspect heatmap, points it at Metrics, installs the
	// census builder and arms watchpoint evaluation, whose alerts
	// surface as "watchpoint.alert" trace events; and installs
	// Forensics as the DRAM module's flip sink, so every flip the host
	// commits or a mitigation vetoes resolves to a verdict and an
	// owning frame.
	scope.Scope
}

// AppliedFlip records one Rowhammer bit flip that actually changed
// memory contents, for host-side instrumentation. The attacker never
// sees this log; it observes flips only by scanning its own memory.
type AppliedFlip struct {
	Addr      memdef.HPA
	Bit       uint
	Direction dram.FlipDirection
}

// Host is the hypervisor machine.
type Host struct {
	Mem   *phys.Memory
	DRAM  *dram.Module
	Buddy *buddy.Allocator
	Clock *simtime.Clock

	cfg Config
	rng *rand.Rand

	// frames is the buddy's memmap, where the host also records the
	// kernel pages, table pages and guest backing it hands out.
	frames memmap.Map

	// vms holds the live VMs by slot, the VM number in memmap
	// descriptors; a destroyed VM's slot is nil until reused.
	vms []*VM
	// vmSeq numbers VMs in creation order so forensics owner records
	// can name them stably.
	vmSeq int

	// kernelPages are frames the "host kernel" holds forever (boot
	// allocations that create the initial unmovable noise).
	kernelPages []memdef.PFN

	// releasedLog records, in order, the base PFNs of order-9 blocks
	// that VMs released through virtio-mem — the paper's added
	// logging function for the Table 2 experiment.
	releasedLog []memdef.PFN

	// flipLog records every applied bit flip in order. Guests consume
	// it only through the scan interfaces, which charge full scan
	// time.
	flipLog []AppliedFlip

	// eccCorrected counts flips the ECC scrubber silently repaired;
	// eccDetected counts uncorrectable double-bit words.
	eccCorrected, eccDetected int

	// crashed marks a host taken down by an uncorrectable error or a
	// multihit machine check; all further guest activity fails.
	crashed bool

	// churnHeld is BackgroundChurn's reusable transient-page buffer;
	// campaigns churn between every attempt.
	churnHeld []memdef.PFN
	// tableBuf holds a destroyed VM's table pages by structure
	// (VM.tableFrames); campaigns destroy a VM every attempt.
	tableBuf [][]memdef.PFN

	// led* are the determinism-ledger fold handles owned by the host
	// layer (nil when the ledger is off): host RNG draws, resolved
	// flip verdicts, EPT mutations (shared by every VM's table), and
	// guest mapping changes.
	ledRNG   *ledger.Stream
	ledFlip  *ledger.Stream
	ledEPT   *ledger.Stream
	ledGuest *ledger.Stream

	met hostMetrics
}

// Ledger verdict codes for the kvm.flip stream, mirroring the
// forensics host-stage verdict strings as foldable words.
const (
	ledVerdictLanded = uint64(iota + 1)
	ledVerdictDirectionFiltered
	ledVerdictECCCorrected
	ledVerdictECCUncorrectable
)

// hostMetrics caches the host-level instrument handles; all nil
// (no-op) without a registry.
type hostMetrics struct {
	flips          [2]*metrics.Counter // indexed by dram.FlipDirection
	eccCorrected   *metrics.Counter
	eccDetected    *metrics.Counter
	machineChecks  *metrics.Counter
	vmsCreated     *metrics.Counter
	vmsDestroyed   *metrics.Counter
	hammerOps      *metrics.Counter
	hammerRounds   *metrics.Counter
	hammerActs     *metrics.Counter
	balloonReclaim *metrics.Counter
	balloonProvide *metrics.Counter
	mitVetoedECC   *metrics.Counter
}

func newHostMetrics(reg *metrics.Registry) hostMetrics {
	return hostMetrics{
		flips: [2]*metrics.Counter{
			dram.FlipOneToZero: reg.Counter("dram_flips_total", "Bit flips applied to memory contents, by direction.", "direction", dram.FlipOneToZero.String()),
			dram.FlipZeroToOne: reg.Counter("dram_flips_total", "Bit flips applied to memory contents, by direction.", "direction", dram.FlipZeroToOne.String()),
		},
		eccCorrected:   reg.Counter("ecc_corrected_total", "Single-bit flips silently repaired by the ECC scrubber."),
		eccDetected:    reg.Counter("ecc_uncorrectable_total", "Uncorrectable double-bit words detected by ECC (machine check)."),
		machineChecks:  reg.Counter("host_machine_checks_total", "Host crashes from uncorrectable errors or iTLB multihit."),
		vmsCreated:     reg.Counter("vms_created_total", "VMs booted on this host."),
		vmsDestroyed:   reg.Counter("vms_destroyed_total", "VMs destroyed on this host."),
		hammerOps:      reg.Counter("hammer_ops_total", "Guest hammer operations issued through the KVM layer."),
		hammerRounds:   reg.Counter("hammer_rounds_total", "Total hammer rounds across all operations."),
		hammerActs:     reg.Counter("hammer_aggressor_activations_total", "Aggressor-row activations charged to the simulated clock."),
		balloonReclaim: reg.Counter("balloon_reclaimed_pages_total", "Guest pages reclaimed through the virtio-balloon."),
		balloonProvide: reg.Counter("balloon_provided_pages_total", "Ballooned pages re-populated with fresh backing."),
		mitVetoedECC:   reg.Counter("mitigation_vetoed_flips_total", dram.VetoedFlipsHelp, "mitigation", "ecc"),
	}
}

// ErrHostDown reports operations on a crashed host.
var ErrHostDown = errors.New("kvm: host machine-checked")

// Crashed reports whether the host has machine-checked.
func (h *Host) Crashed() bool { return h.crashed }

// ECCStats returns (corrected single-bit flips, detected uncorrectable
// words) — host telemetry an operator would read from EDAC counters.
func (h *Host) ECCStats() (corrected, detected int) {
	return h.eccCorrected, h.eccDetected
}

// NewHost boots a host machine.
func NewHost(cfg Config) (*Host, error) {
	if cfg.Geometry == nil {
		return nil, fmt.Errorf("kvm: config needs a DRAM geometry")
	}
	h := &Host{
		Mem:   phys.New(cfg.Geometry.Size),
		DRAM:  dram.NewModule(cfg.Geometry, cfg.Fault),
		Buddy: buddy.New(0, cfg.Geometry.Size/memdef.PageSize),
		Clock: &simtime.Clock{},
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x6C62272E07BB0142)),
		met:   newHostMetrics(cfg.Metrics),
	}
	h.frames = h.Buddy.Memmap()
	cfg.Metrics.BindClock(h.Clock)
	h.DRAM.SetMetrics(cfg.Metrics)
	h.Buddy.SetMetrics(cfg.Metrics)
	if cfg.Ledger != nil {
		// Wired before bootNoise so boot-time draws and allocator
		// churn are covered. Stream resolution order here is the
		// declaration order of every epoch record — keep it fixed.
		cfg.Ledger.BindClock(h.Clock)
		h.ledRNG = cfg.Ledger.Stream("kvm.rng")
		h.ledFlip = cfg.Ledger.Stream("kvm.flip")
		h.DRAM.SetLedger(cfg.Ledger)
		h.Mem.SetLedger(cfg.Ledger)
		h.Buddy.SetLedger(cfg.Ledger)
		h.ledEPT = cfg.Ledger.Stream("ept.mutation")
		h.ledGuest = cfg.Ledger.Stream("guest.mapping")
	}
	if err := h.bootNoise(); err != nil {
		return nil, err
	}
	h.cfg.Trace.BindClock(h.Clock)
	h.bindInspector()
	if cfg.Forensics != nil {
		// Explicit nil guard: installing a typed-nil *Recorder would
		// make the module's sink interface non-nil and tax the hot path.
		cfg.Forensics.BindClock(h.Clock)
		h.DRAM.SetFlipSink(cfg.Forensics)
	}
	h.cfg.Trace.Emit("host.boot",
		"geometry", cfg.Geometry.Name,
		"memBytes", cfg.Geometry.Size,
		"noisePages", h.NoisePages(),
		"thp", cfg.THP, "nxHugepages", cfg.NXHugepages, "ecc", cfg.ECC)
	return h, nil
}

// Config returns the host's configuration.
func (h *Host) Config() Config { return h.cfg }

// GuestMappingLedger exposes the host's "guest.mapping" determinism
// stream so guest runtimes booted on this host's VMs fold their
// mapping changes into the host-wide ledger; nil when the host runs
// without one.
func (h *Host) GuestMappingLedger() *ledger.Stream { return h.ledGuest }

// bootNoise reproduces the post-boot state of the host's unmovable
// free lists: kernel allocations interleaved with frees leave tens of
// thousands of free small-order MIGRATE_UNMOVABLE pages behind.
func (h *Host) bootNoise() error {
	target := h.cfg.BootNoisePages
	if target <= 0 {
		// Still reserve a handful of kernel pages (PlantSecret needs
		// one, and a real kernel always holds some).
		for i := 0; i < 16; i++ {
			p, err := h.Buddy.Alloc(0, memdef.MigrateUnmovable)
			if err != nil {
				return fmt.Errorf("kvm: boot reserve: %w", err)
			}
			h.frames[p] = memmap.KernelDesc
			h.kernelPages = append(h.kernelPages, p)
		}
		return nil
	}
	// Allocate first, free after: freeing as we go would only hand the
	// pages straight back to the next allocation. Freeing a random
	// subset of a contiguous run leaves kept pages interleaved with
	// free ones, which is exactly the fragmented small-block state a
	// booted kernel exhibits.
	var pages []memdef.PFN
	for i := 0; i < 2*target+64; i++ {
		p, err := h.Buddy.Alloc(0, memdef.MigrateUnmovable)
		if err != nil {
			return fmt.Errorf("kvm: boot noise: %w", err)
		}
		pages = append(pages, p)
	}
	for _, p := range pages {
		v := h.rng.Float64()
		h.ledRNG.Fold1(math.Float64bits(v))
		if v < 0.5 {
			h.Buddy.Free(p, 0, memdef.MigrateUnmovable)
		} else {
			h.frames[p] = memmap.KernelDesc
			h.kernelPages = append(h.kernelPages, p)
		}
	}
	// Top up or trim toward the target; random choices and buddy
	// coalescing move the count either way.
	for h.Buddy.NoisePages(memdef.MigrateUnmovable) < target && len(h.kernelPages) > 16 {
		p := h.kernelPages[len(h.kernelPages)-1]
		h.kernelPages = h.kernelPages[:len(h.kernelPages)-1]
		h.Buddy.Free(p, 0, memdef.MigrateUnmovable)
	}
	return nil
}

// NoisePages returns the current count of free small-order unmovable
// pages — the simulation's /proc/pagetypeinfo-derived metric from
// Figure 3. This is host-side observability; the attacker cannot read
// it (Section 4.2.1: "no indication when all small blocks are
// consumed").
func (h *Host) NoisePages() int {
	return h.Buddy.NoisePages(memdef.MigrateUnmovable)
}

// ReleasedBlockLog returns the PFNs of every order-9 block released by
// VMs via virtio-mem, the paper's first instrumentation function for
// Table 2.
func (h *Host) ReleasedBlockLog() []memdef.PFN {
	out := make([]memdef.PFN, len(h.releasedLog))
	copy(out, h.releasedLog)
	return out
}

// FlipLog returns all applied flips so far (host instrumentation).
func (h *Host) FlipLog() []AppliedFlip {
	out := make([]AppliedFlip, len(h.flipLog))
	copy(out, h.flipLog)
	return out
}

// VMs returns the live VM count.
func (h *Host) VMs() int {
	n := 0
	for _, vm := range h.vms {
		if vm != nil {
			n++
		}
	}
	return n
}

// BackgroundChurn models host-side activity between attack attempts:
// kernel services and host processes allocating and freeing unmovable
// pages. The net allocation is zero, but the reordering of the free
// lists it causes is what makes consecutive attack attempts sample
// different page-reuse pairings — on a real host this drift is
// continuous and free. ops is the number of transient allocations.
func (h *Host) BackgroundChurn(ops int) {
	held := h.churnHeld[:0]
	defer func() { h.churnHeld = held[:0] }()
	for i := 0; i < ops; i++ {
		choice := h.rng.IntN(3)
		h.ledRNG.Fold1(uint64(choice))
		switch choice {
		case 0: // allocate and hold briefly
			if p, err := h.Buddy.AllocPage(memdef.MigrateUnmovable); err == nil {
				held = append(held, p)
			}
		case 1: // free one held page in random order
			if len(held) > 0 {
				j := h.rng.IntN(len(held))
				h.ledRNG.Fold1(uint64(j))
				h.Buddy.FreePage(held[j], memdef.MigrateUnmovable)
				held[j] = held[len(held)-1]
				held = held[:len(held)-1]
			}
		case 2: // short-lived larger allocation (page-cache style)
			order := 1 + h.rng.IntN(3)
			h.ledRNG.Fold1(uint64(order))
			if p, err := h.Buddy.Alloc(order, memdef.MigrateUnmovable); err == nil {
				h.Buddy.Free(p, order, memdef.MigrateUnmovable)
			}
		}
	}
	for _, p := range held {
		h.Buddy.FreePage(p, memdef.MigrateUnmovable)
	}
}

// PlantSecret fills one host-kernel-owned page (never mapped into any
// VM) with the given word and returns its physical address. Experiment
// harnesses use it to verify that a claimed VM escape really reads
// host memory, mirroring the magic-value check of Section 5.3.2.
func (h *Host) PlantSecret(value uint64) memdef.HPA {
	if len(h.kernelPages) == 0 {
		panic("kvm: no kernel pages to plant a secret in")
	}
	p := h.kernelPages[0]
	h.Mem.FillWord(p, value)
	return p.HPAOf()
}

// noteWrite maintains TLB coherence: a write that lands in a live
// table frame invalidates the owning VM's cached translations, the
// way a hardware page-table write eventually invalidates TLB entries.
// Reports whether a flush happened.
func (h *Host) noteWrite(a memdef.HPA) bool {
	d := h.frames[memdef.PFNOf(a)]
	if d.Kind() != memmap.Table {
		return false
	}
	h.vms[d.VM()].flushTLB()
	return true
}

// flipsHitTables reports whether any candidate flip landed in a live
// translation-table frame — the only way an applied flip can change a
// later address translation.
func (h *Host) flipsHitTables(flips []dram.CandidateFlip) bool {
	for _, f := range flips {
		if h.frames[memdef.PFNOf(f.Addr)].Kind() == memmap.Table {
			return true
		}
	}
	return false
}

// applyFlips commits candidate flips from the DRAM fault model to
// memory contents, records the applied ones and invalidates all
// cached translations (hammering thrashes the caches anyway).
//
// With ECC enabled, a lone flipped bit per 64-bit word is corrected by
// the scrubber before software observes it; two flips in the same word
// exceed SECDED and machine-check the host.
func (h *Host) applyFlips(cands []dram.CandidateFlip) int {
	if h.cfg.ECC {
		perWord := make(map[memdef.HPA]int)
		effective := make([]bool, len(cands))
		for i, f := range cands {
			// Only count flips that would actually change the bit.
			w := h.Mem.Word(f.Addr &^ 7)
			bitPos := (uint(f.Addr)&7)*8 + f.Bit
			cur := (w >> bitPos) & 1
			if (f.Direction == dram.FlipOneToZero) == (cur == 1) {
				perWord[f.Addr&^7]++
				effective[i] = true
			}
		}
		for _, n := range perWord {
			if n >= 2 {
				h.eccDetected++
				h.met.eccDetected.Inc()
				if !h.crashed {
					h.met.machineChecks.Inc()
				}
				h.crashed = true
			} else {
				h.eccCorrected++
				h.met.eccCorrected.Inc()
				h.met.mitVetoedECC.Inc()
			}
		}
		if h.cfg.Forensics != nil || h.ledFlip != nil {
			// Resolve in candidate order, never perWord map order:
			// forensics and ledger output must be deterministic.
			for i, f := range cands {
				switch {
				case !effective[i]:
					h.ledFlip.Fold3(uint64(f.Addr), uint64(f.Bit), ledVerdictDirectionFiltered)
					h.cfg.Forensics.ResolveFlip(f.Addr, f.Bit, forensics.VerdictDirectionFiltered, nil)
				case perWord[f.Addr&^7] >= 2:
					h.ledFlip.Fold3(uint64(f.Addr), uint64(f.Bit), ledVerdictECCUncorrectable)
					h.cfg.Forensics.ResolveFlip(f.Addr, f.Bit, forensics.VerdictECCUncorrectable, nil)
				default:
					h.ledFlip.Fold3(uint64(f.Addr), uint64(f.Bit), ledVerdictECCCorrected)
					h.cfg.Forensics.ResolveFlip(f.Addr, f.Bit, forensics.VerdictECCCorrected, nil)
				}
			}
		}
		// Correctable single-bit errors are scrubbed before any read;
		// uncorrectable words have already taken the host down.
		return 0
	}
	applied := 0
	for _, f := range cands {
		if h.Mem.FlipBit(f.Addr, f.Bit, f.Direction == dram.FlipOneToZero) {
			h.flipLog = append(h.flipLog, AppliedFlip{Addr: f.Addr, Bit: f.Bit, Direction: f.Direction})
			applied++
			h.met.flips[f.Direction].Inc()
			h.cfg.Inspect.RecordFlip(h.cfg.Geometry.Bank(f.Addr), h.cfg.Geometry.Row(f.Addr))
			h.cfg.Trace.Emit("dram.flip",
				"hpa", fmt.Sprintf("%#x", f.Addr), "bit", f.Bit, "dir", f.Direction)
			h.ledFlip.Fold3(uint64(f.Addr), uint64(f.Bit), ledVerdictLanded)
			if h.cfg.Forensics != nil {
				h.cfg.Forensics.ResolveFlip(f.Addr, f.Bit, forensics.VerdictLanded, h.flipOwner(f.Addr))
			}
		} else {
			h.ledFlip.Fold3(uint64(f.Addr), uint64(f.Bit), ledVerdictDirectionFiltered)
			h.cfg.Forensics.ResolveFlip(f.Addr, f.Bit, forensics.VerdictDirectionFiltered, nil)
		}
	}
	if applied > 0 {
		for _, vm := range h.vms {
			if vm != nil {
				vm.flushTLB()
			}
		}
	}
	return applied
}

// flipOwner resolves the frame a landed flip corrupted to its owner at
// flip time, from its memmap descriptor. Only called with a forensics
// recorder attached.
func (h *Host) flipOwner(a memdef.HPA) *forensics.Owner {
	p := memdef.PFNOf(a)
	switch d := h.frames[p]; d.Kind() {
	case memmap.Table:
		vm := h.vms[d.VM()]
		if d.Structure() == eptStructure {
			return &forensics.Owner{Kind: forensics.OwnerEPTTable, VM: vm.id, Level: d.Level()}
		}
		return &forensics.Owner{Kind: forensics.OwnerIOPTTable, VM: vm.id}
	case memmap.Kernel:
		return &forensics.Owner{Kind: forensics.OwnerKernel}
	}
	if vm, gpa, ok := h.guestPage(p); ok {
		return &forensics.Owner{Kind: forensics.OwnerGuestFrame, VM: vm.id, GPA: uint64(gpa)}
	}
	return &forensics.Owner{Kind: forensics.OwnerFree}
}

// guestPage finds the guest page frame p backs, if any. A THP chunk is
// recorded at its head frame only, so a frame with no descriptor of
// its own defers to its 2 MiB-aligned head.
func (h *Host) guestPage(p memdef.PFN) (*VM, memdef.GPA, bool) {
	d, off := h.frames[p], memdef.PFN(0)
	if d.Kind() == memmap.Allocated {
		off = p % memdef.PagesPerHuge
		d = h.frames[p-off]
	}
	if d.Kind() != memmap.Guest || off != 0 && !d.Huge() {
		return nil, 0, false
	}
	return h.vms[d.VM()], d.GFN().GPAOf() + memdef.GPA(off<<memdef.PageShift), true
}
