package attack

import (
	"fmt"
	"time"

	"hyperhammer/internal/forensics"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/simtime"
)

// CampaignConfig drives a repeated-attempt attack campaign, the
// methodology of Section 5.3.2 / Table 3. A campaign ends at its first
// successful attempt, as the Table 3 experiment does.
type CampaignConfig struct {
	// Attack is the per-attempt attack configuration.
	Attack Config
	// VM is the attacker VM shape, respawned for every attempt.
	VM kvm.VMConfig
	// MaxAttempts bounds the campaign.
	MaxAttempts int
	// VerifyHPA/VerifyValue, when set, require the escape handle to
	// read the planted host secret before an attempt counts as a
	// success — the Section 5.3.2 magic-value check.
	VerifyHPA   memdef.HPA
	VerifyValue uint64
}

// churnOps is how much background host activity (transient unmovable
// allocations) runs between attempts, modelling the natural free-list
// drift of a live host. Without it consecutive attempts would be
// near-identical replays — unrealistic and useless for a statistical
// attack.
const churnOps = 400

// AttemptStats records one attack attempt.
type AttemptStats struct {
	Index int
	// Outcome classifies how the attempt ended, using the
	// forensics.Outcome* taxonomy (escaped, steer-miss, ...).
	Outcome    string
	UsableBits int
	Released   int
	Splits     int
	Changes    int
	Candidates int
	Confirmed  int
	Success    bool
	Duration   time.Duration
	// SteerDuration and ExploitDuration break the attempt down by
	// phase; the remainder is VM boot, relocation hypercalls, and the
	// post-attempt reboot.
	SteerDuration   time.Duration
	ExploitDuration time.Duration
}

// CampaignResult summarizes a campaign (the Table 3 measurement).
type CampaignResult struct {
	Attempts            []AttemptStats
	Successes           int
	FirstSuccessAttempt int // 1-based; 0 if none
	// ProfileDuration is the one-time full-profile cost (amortized
	// across attempts by the hypercall reuse trick).
	ProfileDuration time.Duration
	// TimeToFirstSuccess is the simulated attack time (excluding the
	// one-time profile) until the first successful attempt completed.
	TimeToFirstSuccess time.Duration
	// TotalDuration is the simulated time of all attempts.
	TotalDuration time.Duration
	// ProfiledBits is the number of stable exploitable bits the
	// profile found.
	ProfiledBits int

	// Phase accounting (simulated time) across the whole campaign:
	// where attack time goes besides the one-time profile. SetupTime
	// covers VM boot, allocation, and relocation hypercalls;
	// RebootTime is the fixed per-respawn cost.
	SteerTime   time.Duration
	ExploitTime time.Duration
	RebootTime  time.Duration
	SetupTime   time.Duration
}

// AvgAttemptTime returns the mean simulated duration of one attempt.
func (r *CampaignResult) AvgAttemptTime() time.Duration {
	if len(r.Attempts) == 0 {
		return 0
	}
	return r.TotalDuration / time.Duration(len(r.Attempts))
}

// physicalBit is a profiled vulnerable bit pinned to physical memory,
// the representation that survives VM respawns.
type physicalBit struct {
	cellHPA  memdef.HPA // host address of the vulnerable byte
	bit      uint
	aggrA    memdef.HPA
	aggrB    memdef.HPA
	epteBit  uint
	oneToVal bool
}

// RunCampaign performs the full Table 3 experiment on a host: profile
// the attacker VM's memory once (recording vulnerable-cell locations
// physically via the GPA-to-HPA hypercall), then repeatedly respawn
// the VM and run Page Steering plus exploitation until an attempt
// succeeds or the attempt budget runs out. Failed attempts cost a VM
// reboot, since hugepage demotion is not reversible (Section 4.3).
func RunCampaign(h *kvm.Host, ccfg CampaignConfig) (*CampaignResult, error) {
	if ccfg.MaxAttempts <= 0 {
		return nil, fmt.Errorf("attack: campaign needs MaxAttempts > 0")
	}
	// The campaign observes through whatever the host is wired to,
	// unless the attack config overrides it.
	if ccfg.Attack.Trace == nil {
		ccfg.Attack.Trace = h.Config().Trace
	}
	if ccfg.Attack.Metrics == nil {
		ccfg.Attack.Metrics = h.Config().Metrics
	}
	if ccfg.Attack.Forensics == nil {
		ccfg.Attack.Forensics = h.Config().Forensics
	}
	if ccfg.Attack.Ledger == nil {
		ccfg.Attack.Ledger = h.Config().Ledger
	}
	ccfg.Attack.Forensics.BeginCampaign(ccfg.MaxAttempts)
	defer ccfg.Attack.Forensics.EndCampaign()
	res := &CampaignResult{}
	span := ccfg.Attack.startSpan("attack.campaign", "maxAttempts", ccfg.MaxAttempts)
	defer func() {
		span.End("attempts", len(res.Attempts), "successes", res.Successes)
	}()
	// Everything below — the one-time profile and every attempt —
	// belongs to this campaign in the recorded span tree.
	ccfg.Attack.Span = span

	// One-time profile, pinned to physical addresses via hypercall.
	vm, err := h.CreateVM(ccfg.VM)
	if err != nil {
		return nil, fmt.Errorf("attack: creating profiling VM: %w", err)
	}
	gos := guest.Boot(vm)
	prof, err := Profile(gos, ccfg.Attack)
	if err != nil {
		vm.Destroy()
		return nil, err
	}
	res.ProfileDuration = prof.Duration
	var bits []physicalBit
	for _, b := range prof.ExploitableBits(0) {
		cell, err1 := gos.Hypercall(b.Flip.GVA)
		aggrA, err2 := gos.Hypercall(b.AggressorA)
		aggrB, err3 := gos.Hypercall(b.AggressorB)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		bits = append(bits, physicalBit{
			cellHPA: cell, bit: b.Flip.Bit,
			aggrA: aggrA, aggrB: aggrB,
			epteBit: b.Flip.EPTEBit(),
		})
	}
	res.ProfiledBits = len(bits)
	vm.Destroy()
	h.Clock.Advance(simtime.VMReboot)
	res.RebootTime += simtime.VMReboot
	ccfg.Attack.observePhase("reboot", simtime.VMReboot)
	if len(bits) == 0 {
		return res, fmt.Errorf("attack: profile found no exploitable bits")
	}

	// One working set for the whole campaign: attempts clear and
	// refill these buffers instead of re-allocating them.
	ccfg.Attack.scratch = &attemptScratch{}

	attackClock := simtime.NewStopwatch(h.Clock)
	for attempt := 1; attempt <= ccfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			h.BackgroundChurn(churnOps)
		}
		stats, err := runAttempt(h, ccfg, bits, attempt)
		if err != nil {
			return res, err
		}
		// Stamp the attempt's end-state memory layout into the trace
		// (no-op unless the host carries an introspection plane).
		h.CensusEvent(fmt.Sprintf("attempt %d", attempt))
		res.Attempts = append(res.Attempts, stats)
		res.TotalDuration = attackClock.Elapsed()
		res.SteerTime += stats.SteerDuration
		res.ExploitTime += stats.ExploitDuration
		res.RebootTime += simtime.VMReboot
		if setup := stats.Duration - stats.SteerDuration - stats.ExploitDuration - simtime.VMReboot; setup > 0 {
			res.SetupTime += setup
		}
		if m := ccfg.Attack.Metrics; m != nil {
			m.Counter("attack_attempts_total", "Steer-and-exploit attempts run.").Inc()
			if stats.Success {
				m.Counter("attack_successes_total", "Attempts that escaped (verified when a secret check is configured).").Inc()
			}
		}
		if stats.Success {
			res.Successes++
			res.FirstSuccessAttempt = attempt
			res.TimeToFirstSuccess = attackClock.Elapsed()
			break
		}
	}
	return res, nil
}

// runAttempt performs one steer-and-exploit attempt on a fresh VM.
func runAttempt(h *kvm.Host, ccfg CampaignConfig, bits []physicalBit, index int) (stats AttemptStats, err error) {
	stats = AttemptStats{Index: index}
	ccfg.Attack.Forensics.BeginAttempt(index)
	span := ccfg.Attack.startSpan("attack.attempt", "index", index)
	defer func() { span.End("success", stats.Success) }()
	sw := simtime.NewStopwatch(h.Clock)
	defer func() { stats.Duration = sw.Elapsed() }()

	vm, err := h.CreateVM(ccfg.VM)
	if err != nil {
		return stats, fmt.Errorf("attack: attempt %d: creating VM: %w", index, err)
	}
	defer func() {
		vm.Destroy()
		h.Clock.Advance(simtime.VMReboot)
		ccfg.Attack.observePhase("reboot", simtime.VMReboot)
	}()
	// Registered after the destroy defer so it runs before the
	// respawn: the attempt's forensic end time is when its ladder
	// resolved, not when the replacement VM finished booting. stats is
	// a named return, so the closure sees every field's final value.
	defer func() {
		if stats.Outcome == "" {
			stats.Outcome = forensics.OutcomeError
		}
		ccfg.Attack.Ledger.Stream("attack.outcome").Fold2(uint64(index), ledger.HashString(stats.Outcome))
		ccfg.Attack.Forensics.EndAttempt(forensics.AttemptFacts{
			Index:          index,
			Outcome:        stats.Outcome,
			UsableBits:     stats.UsableBits,
			Released:       stats.Released,
			Splits:         stats.Splits,
			MappingChanges: stats.Changes,
			CandidatePages: stats.Candidates,
			ConfirmedPages: stats.Confirmed,
		})
	}()
	gos := guest.Boot(vm)

	// A fresh spray order per attempt redraws the flip-polarity dice
	// (Section 4.3, "Improving Success Rates").
	acfg := ccfg.Attack
	acfg.SpraySeed = uint64(index)*0x9E3779B97F4A7C15 + 1
	// Steering and exploitation nest under this attempt, not the
	// campaign.
	acfg.Span = span

	// Allocate everything and relocate the profiled bits into the new
	// address space with the hypercall (Section 5.3.2).
	n := gos.FreeHugepages()
	base, err := gos.AllocHuge(n)
	if err != nil {
		return stats, err
	}
	buf := Buffer{Base: base, Hugepages: n}
	scratch := ccfg.Attack.scratch
	hpaToGVA := scratch.hpaMap(n)
	for i := 0; i < n; i++ {
		gva := buf.HugepageBase(i)
		hpa, err := gos.Hypercall(gva)
		if err != nil {
			return stats, err
		}
		hpaToGVA[hpa] = gva
	}
	locate := func(hpa memdef.HPA) (memdef.GVA, bool) {
		hugeBase, ok := hpaToGVA[memdef.HugeBase(hpa)]
		if !ok {
			return 0, false
		}
		return hugeBase + memdef.GVA(hpa-memdef.HugeBase(hpa)), true
	}
	victims := scratch.victims[:0]
	for _, pb := range bits {
		cell, ok1 := locate(pb.cellHPA)
		a, ok2 := locate(pb.aggrA)
		b, ok3 := locate(pb.aggrB)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		victims = append(victims, VulnBit{
			Flip:        guest.Flip{GVA: cell, Bit: pb.bit},
			AggressorA:  a,
			AggressorB:  b,
			Stable:      true,
			Exploitable: true,
		})
		if len(victims) >= ccfg.Attack.TargetBits*2 {
			break // headroom for hugepage-conflict skips in PageSteer
		}
	}
	scratch.victims = victims
	stats.UsableBits = len(victims)
	if len(victims) == 0 {
		stats.Outcome = forensics.OutcomeNoUsableBit
		return stats, nil // unlucky backing; respawn
	}

	steer, err := PageSteer(gos, acfg, buf, victims)
	if err != nil {
		stats.Outcome = forensics.OutcomeSteerMiss
		return stats, nil // steering found nothing releasable; respawn
	}
	stats.Released = len(steer.Released)
	stats.Splits = steer.Splits
	stats.SteerDuration = steer.Duration

	expl, err := Exploit(gos, acfg, buf, steer)
	if err != nil {
		return stats, err
	}
	stats.ExploitDuration = expl.Duration
	stats.Changes = expl.MappingChanges
	stats.Candidates = expl.CandidateEPTPages
	stats.Confirmed = expl.ConfirmedEPTPages
	if !expl.Success() {
		switch {
		case stats.Changes == 0:
			stats.Outcome = forensics.OutcomeNoMappingChange
		case stats.Candidates == 0:
			stats.Outcome = forensics.OutcomeNoCandidateEPT
		default:
			stats.Outcome = forensics.OutcomeNoConfirmedEPT
		}
		return stats, nil
	}
	if ccfg.VerifyHPA != 0 {
		got, err := expl.Escape.ReadHost(ccfg.VerifyHPA)
		if err != nil || got != ccfg.VerifyValue {
			stats.Outcome = forensics.OutcomeVerifyFailed
			return stats, nil // claimed escape failed verification
		}
	}
	stats.Success = true
	stats.Outcome = forensics.OutcomeEscaped
	return stats, nil
}
