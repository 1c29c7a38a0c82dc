// Package forensics is the flip-provenance plane: where metrics count
// what happened and inspect shows what the machine looks like, this
// package records *why* each attack attempt ended the way it did — the
// causal chain from aggressor row activations through the fault
// model's per-flip verdicts (direction-filtered, TRR-refreshed,
// ECC-vetoed, flaky-no-fire, landed), the physical frame and owner
// each landed flip resolved to at flip time, and the exploit outcome
// the attempt joined them into (steering miss, no usable bit, mapping
// change, confirmed EPT page, escape).
//
// The recorder hangs off the same hook points as the other planes: the
// dram flip sink feeds Stage 1 (the flip pipeline), kvm resolves Stage
// 2 (frame ownership) via ResolveFlip, and the attack campaign drives
// Stage 3 (the attempt timeline) via Begin/EndAttempt. Like inspect,
// every method is safe on a nil receiver, recorders scope per plan
// unit via Scoped/Absorb (declaration-order folds keep snapshots
// byte-identical at any -parallel setting), and nothing here feeds
// back into simulated state: hooks consume no RNG draws and never
// advance the simulated clock, so enabling the plane cannot perturb
// results.
package forensics

import (
	"sort"
	"sync"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/simtime"
)

// Version is the forensics snapshot schema version.
const Version = 1

// Host-stage flip verdicts, continuing the dram-stage chain
// (dram.FlipFired / FlipFlakyNoFire / FlipTRRRefreshed).
const (
	// VerdictLanded marks a flip that changed memory contents.
	VerdictLanded = "landed"
	// VerdictDirectionFiltered marks a candidate whose target bit
	// already held the flip's destination value.
	VerdictDirectionFiltered = "direction-filtered"
	// VerdictECCCorrected marks a flip the ECC scrubber repaired
	// before software observed it (mitigation-vetoed).
	VerdictECCCorrected = "ecc-corrected"
	// VerdictECCUncorrectable marks a flip in a double-bit word that
	// machine-checked the host.
	VerdictECCUncorrectable = "ecc-uncorrectable"
)

// Frame-owner kinds for landed flips.
const (
	OwnerEPTTable   = "ept-table"
	OwnerIOPTTable  = "iopt-table"
	OwnerGuestFrame = "guest-frame"
	OwnerKernel     = "kernel"
	OwnerFree       = "free"
)

// Attempt outcomes, the failure taxonomy of the attack ladder in
// order of progress: each outcome names the first rung the attempt
// failed to clear.
const (
	OutcomeNoUsableBit     = "no-usable-bit"
	OutcomeSteerMiss       = "steer-miss"
	OutcomeNoMappingChange = "no-mapping-change"
	OutcomeNoCandidateEPT  = "no-candidate-ept"
	OutcomeNoConfirmedEPT  = "no-confirmed-ept"
	OutcomeVerifyFailed    = "verify-failed"
	OutcomeEscaped         = "escaped"
	OutcomeError           = "error"
)

// maxFlipsPerAttempt bounds the detailed flip records retained per
// attempt. Verdict and owner counters keep counting past the bound;
// FlipsTruncated reports how many records were dropped.
const maxFlipsPerAttempt = 48

// CountRow is one (key, count) pair of a deterministic counter table
// (verdicts, owners, outcomes), sorted by key in every snapshot.
type CountRow struct {
	Key string `json:"key"`
	N   uint64 `json:"n"`
}

// AggressorRef names one aggressor row and its effective per-window
// activation count for the operation that drove a flip event.
type AggressorRef struct {
	Bank int `json:"bank"`
	Row  int `json:"row"`
	// Activations is the per-refresh-window activation count the row
	// contributed (0 for rows the TRR tracker neutralized).
	Activations int64 `json:"activations,omitempty"`
}

// Owner identifies the physical frame a landed flip resolved to at
// flip time.
type Owner struct {
	// Kind is one of the Owner* constants.
	Kind string `json:"kind"`
	// VM is the owning VM's host-assigned id (0 when no VM owns the
	// frame).
	VM int `json:"vm,omitempty"`
	// Level is the table level for ept-table frames (1 = leaf, the
	// paper's "EPT pages").
	Level int `json:"level,omitempty"`
	// GPA is the guest-physical address backed by the frame for
	// guest-frame owners.
	GPA uint64 `json:"gpa,omitempty"`
}

// FlipRecord is one fully-resolved flip event: the dram-stage context
// (aggressors, disturbance, rounds), the final verdict, and — for
// landed flips — the owner of the frame the flip corrupted.
type FlipRecord struct {
	// SimSeconds is the simulated clock at the event.
	SimSeconds float64 `json:"t"`
	// HPA/Bit locate the flipped cell in host physical memory.
	HPA uint64 `json:"hpa"`
	Bit uint   `json:"bit"`
	// Direction is the cell's fixed flip direction ("1->0" / "0->1").
	Direction string `json:"dir,omitempty"`
	// Bank/Row locate the victim cell in DRAM.
	Bank int `json:"bank"`
	Row  int `json:"row"`
	// Verdict is the final verdict of the flip pipeline.
	Verdict string `json:"verdict"`
	// Disturbance is the activation-weighted disturbance that drove
	// the event, absent the verdict's mitigation (for trr-refreshed
	// events it is the pre-TRR disturbance that would have fired the
	// cell); Threshold is the cell's flip threshold.
	Disturbance float64 `json:"disturbance,omitempty"`
	Threshold   float64 `json:"threshold,omitempty"`
	// RoundsRequested/RoundsEffective are the operation's requested
	// and refresh-window-clipped per-aggressor activation counts.
	RoundsRequested int `json:"roundsRequested,omitempty"`
	RoundsEffective int `json:"roundsEffective,omitempty"`
	// Aggressors is the active aggressor row set whose activations
	// fed the event; Neutralized lists rows the TRR tracker caught.
	Aggressors  []AggressorRef `json:"aggressors"`
	Neutralized []AggressorRef `json:"neutralized,omitempty"`
	// Owner is the flip-time frame owner (landed flips only).
	Owner *Owner `json:"owner,omitempty"`
}

// AttemptRecord is the causal record of one attack attempt.
type AttemptRecord struct {
	Index           int     `json:"index"`
	StartSimSeconds float64 `json:"startSimSeconds"`
	EndSimSeconds   float64 `json:"endSimSeconds"`
	// Outcome is the failure-taxonomy bucket; Cause is the
	// synthesized one-line explanation.
	Outcome string `json:"outcome"`
	Cause   string `json:"cause"`
	// Ladder facts joined from the attack stages.
	UsableBits     int `json:"usableBits"`
	Released       int `json:"released"`
	Splits         int `json:"splits"`
	MappingChanges int `json:"mappingChanges"`
	CandidatePages int `json:"candidatePages"`
	ConfirmedPages int `json:"confirmedPages"`
	// Verdicts/Owners count the attempt's flip events by verdict and
	// landed-frame owner kind.
	Verdicts []CountRow `json:"verdicts"`
	Owners   []CountRow `json:"owners"`
	// Flips retains per-flip detail up to the configured bound.
	Flips          []FlipRecord `json:"flips"`
	FlipsTruncated int          `json:"flipsTruncated,omitempty"`
}

// CampaignRecord is one campaign's sim-time-ordered attack timeline
// plus its failure-taxonomy summary.
type CampaignRecord struct {
	// Unit tags the plan unit that ran the campaign ("" for the live
	// recorder's own campaigns).
	Unit            string  `json:"unit,omitempty"`
	StartSimSeconds float64 `json:"startSimSeconds"`
	EndSimSeconds   float64 `json:"endSimSeconds"`
	MaxAttempts     int     `json:"maxAttempts,omitempty"`
	// ProfileVerdicts counts flip events outside any attempt — the
	// one-time profiling phase (detail is not retained: profiling
	// floods candidates by design).
	ProfileVerdicts []CountRow      `json:"profileVerdicts"`
	Attempts        []AttemptRecord `json:"attempts"`
	// Outcomes is the campaign's failure taxonomy: attempt outcome →
	// count.
	Outcomes []CountRow `json:"outcomes"`
}

// Snapshot is the serialized forensics plane: plan-unit campaigns in
// declaration order, then the live recorder's own, plus global verdict
// /owner/outcome totals covering every event (campaign or not).
type Snapshot struct {
	Version   int              `json:"version"`
	Campaigns []CampaignRecord `json:"campaigns"`
	Verdicts  []CountRow       `json:"verdicts"`
	Owners    []CountRow       `json:"owners"`
	Outcomes  []CountRow       `json:"outcomes"`
	// FlipsRecorded/FlipsTruncated count retained vs dropped detailed
	// flip records across all attempts.
	FlipsRecorded  int `json:"flipsRecorded"`
	FlipsTruncated int `json:"flipsTruncated"`
}

// AttemptFacts carries one finished attempt's ladder facts from the
// attack layer into EndAttempt.
type AttemptFacts struct {
	Index          int
	Outcome        string
	UsableBits     int
	Released       int
	Splits         int
	MappingChanges int
	CandidatePages int
	ConfirmedPages int
}

// opContext is the current hammer operation's provenance, attached to
// every flip event it produces.
type opContext struct {
	aggs      []AggressorRef
	neut      []AggressorRef
	roundsReq int
	roundsEff int
}

// campaignState is an open campaign under construction.
type campaignState struct {
	rec      CampaignRecord
	outcomes map[string]uint64
	prof     map[string]uint64
}

// attemptState is an open attempt under construction.
type attemptState struct {
	rec      AttemptRecord
	verdicts map[string]uint64
	owners   map[string]uint64
}

// Recorder accumulates flip provenance for one telemetry scope: a
// whole CLI run, or one scheduled plan unit (see Scoped/Absorb). All
// methods are safe for concurrent use and no-ops on a nil receiver, so
// config threading never guards.
type Recorder struct {
	mu    sync.Mutex
	clock *simtime.Clock

	// absorbed holds unit campaigns folded in declaration order; done
	// holds this recorder's own completed campaigns.
	absorbed []CampaignRecord
	done     []CampaignRecord
	cur      *campaignState
	att      *attemptState

	op      *opContext
	pending []FlipRecord

	verdicts map[string]uint64
	owners   map[string]uint64
	outcomes map[string]uint64

	flipsRecorded  int
	flipsTruncated int
}

// New creates a Recorder.
func New() *Recorder {
	return &Recorder{
		verdicts: make(map[string]uint64),
		owners:   make(map[string]uint64),
		outcomes: make(map[string]uint64),
	}
}

// Scoped returns a fresh Recorder for one scheduled plan unit; fold it
// back with Absorb. Nil-safe.
func (r *Recorder) Scoped() *Recorder {
	if r == nil {
		return nil
	}
	return New()
}

// BindClock points the recorder at a host's simulated clock; event
// timestamps read it. kvm.NewHost calls this at boot, so a recorder
// serving several sequential hosts stamps each host's events with that
// host's clock, mirroring trace and metrics.
func (r *Recorder) BindClock(c *simtime.Clock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
}

// nowLocked returns the bound clock's reading in simulated seconds.
func (r *Recorder) nowLocked() float64 {
	if r.clock == nil {
		return 0
	}
	return r.clock.Now().Seconds()
}

// BeginHammerOp implements dram.FlipSink: a new hammer operation
// starts; subsequent flip events carry its aggressor provenance.
func (r *Recorder) BeginHammerOp(info dram.FlipOpInfo) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushPendingLocked()
	op := &opContext{roundsReq: info.Rounds, roundsEff: info.WindowRounds}
	for _, ag := range info.Aggressors {
		op.aggs = append(op.aggs, AggressorRef{Bank: ag.Bank, Row: ag.Row, Activations: int64(info.WindowRounds)})
	}
	for _, ag := range info.Neutralized {
		op.neut = append(op.neut, AggressorRef{Bank: ag.Bank, Row: ag.Row})
		// Neutralized rows contribute no activations; mark them so in
		// the active set too (TRR caught them before they disturbed).
		for i := range op.aggs {
			if op.aggs[i].Bank == ag.Bank && op.aggs[i].Row == ag.Row {
				op.aggs[i].Activations = 0
			}
		}
	}
	r.op = op
}

// RecordFlipEvent implements dram.FlipSink: one per-cell verdict from
// the fault model. Fired candidates stay pending until the host stage
// resolves them (ResolveFlip); mitigation verdicts commit immediately.
func (r *Recorder) RecordFlipEvent(ev dram.FlipEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.recordFromEventLocked(ev)
	if ev.Verdict == dram.FlipFired {
		r.pending = append(r.pending, rec)
		return
	}
	r.commitLocked(rec)
}

// recordFromEventLocked builds a FlipRecord carrying the current op's
// provenance.
func (r *Recorder) recordFromEventLocked(ev dram.FlipEvent) FlipRecord {
	rec := FlipRecord{
		SimSeconds:  r.nowLocked(),
		HPA:         uint64(ev.Addr),
		Bit:         ev.Bit,
		Direction:   ev.Direction.String(),
		Bank:        ev.Row.Bank,
		Row:         ev.Row.Row,
		Verdict:     ev.Verdict,
		Disturbance: ev.Disturbance,
		Threshold:   ev.Threshold,
		Aggressors:  []AggressorRef{},
	}
	if op := r.op; op != nil {
		rec.RoundsRequested = op.roundsReq
		rec.RoundsEffective = op.roundsEff
		rec.Aggressors = append(rec.Aggressors, op.aggs...)
		rec.Neutralized = append(rec.Neutralized, op.neut...)
	}
	return rec
}

// ResolveFlip joins the host stage's verdict for a fired candidate:
// landed (with its flip-time frame owner), direction-filtered, or an
// ECC verdict. The kvm layer calls this synchronously after the fault
// model returns, so the candidate is still pending from the same op.
func (r *Recorder) ResolveFlip(addr memdef.HPA, bit uint, verdict string, owner *Owner) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.pending {
		if r.pending[i].HPA == uint64(addr) && r.pending[i].Bit == bit {
			rec := r.pending[i]
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			rec.SimSeconds = r.nowLocked()
			rec.Verdict = verdict
			rec.Owner = owner
			r.commitLocked(rec)
			return
		}
	}
	// No pending candidate (flip sink not installed, or a rigged
	// test): record what the host stage knows.
	rec := FlipRecord{
		SimSeconds: r.nowLocked(),
		HPA:        uint64(addr),
		Bit:        bit,
		Verdict:    verdict,
		Owner:      owner,
		Aggressors: []AggressorRef{},
	}
	if op := r.op; op != nil {
		rec.RoundsRequested = op.roundsReq
		rec.RoundsEffective = op.roundsEff
		rec.Aggressors = append(rec.Aggressors, op.aggs...)
		rec.Neutralized = append(rec.Neutralized, op.neut...)
	}
	r.commitLocked(rec)
}

// flushPendingLocked commits candidates the host stage never resolved
// (their verdict stays "fired").
func (r *Recorder) flushPendingLocked() {
	for _, rec := range r.pending {
		r.commitLocked(rec)
	}
	r.pending = r.pending[:0]
}

// commitLocked folds one final flip record into the open attempt (or
// the campaign's profile bucket) and the global totals.
func (r *Recorder) commitLocked(rec FlipRecord) {
	r.verdicts[rec.Verdict]++
	if rec.Owner != nil {
		r.owners[rec.Owner.Kind]++
	}
	if att := r.att; att != nil {
		att.verdicts[rec.Verdict]++
		if rec.Owner != nil {
			att.owners[rec.Owner.Kind]++
		}
		if len(att.rec.Flips) < maxFlipsPerAttempt {
			att.rec.Flips = append(att.rec.Flips, rec)
			r.flipsRecorded++
		} else {
			att.rec.FlipsTruncated++
			r.flipsTruncated++
		}
		return
	}
	if cur := r.cur; cur != nil {
		cur.prof[rec.Verdict]++
	}
}

// BeginCampaign opens a campaign record; the attack layer calls it at
// campaign start.
func (r *Recorder) BeginCampaign(maxAttempts int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.endCampaignLocked()
	}
	r.cur = &campaignState{
		rec:      CampaignRecord{StartSimSeconds: r.nowLocked(), MaxAttempts: maxAttempts},
		outcomes: make(map[string]uint64),
		prof:     make(map[string]uint64),
	}
}

// EndCampaign closes the open campaign.
func (r *Recorder) EndCampaign() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endCampaignLocked()
}

func (r *Recorder) endCampaignLocked() {
	r.flushPendingLocked()
	if r.att != nil {
		r.endAttemptLocked(AttemptFacts{Index: r.att.rec.Index, Outcome: OutcomeError})
	}
	cur := r.cur
	if cur == nil {
		return
	}
	cur.rec.EndSimSeconds = r.nowLocked()
	cur.rec.ProfileVerdicts = sortedRows(cur.prof)
	cur.rec.Outcomes = sortedRows(cur.outcomes)
	if cur.rec.Attempts == nil {
		cur.rec.Attempts = []AttemptRecord{}
	}
	r.done = append(r.done, cur.rec)
	r.cur = nil
}

// BeginAttempt opens attempt `index` of the current campaign.
func (r *Recorder) BeginAttempt(index int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushPendingLocked()
	if r.att != nil {
		r.endAttemptLocked(AttemptFacts{Index: r.att.rec.Index, Outcome: OutcomeError})
	}
	if r.cur == nil {
		// An attempt outside any campaign still gets a record.
		r.cur = &campaignState{
			rec:      CampaignRecord{StartSimSeconds: r.nowLocked()},
			outcomes: make(map[string]uint64),
			prof:     make(map[string]uint64),
		}
	}
	r.att = &attemptState{
		rec:      AttemptRecord{Index: index, StartSimSeconds: r.nowLocked(), Flips: []FlipRecord{}},
		verdicts: make(map[string]uint64),
		owners:   make(map[string]uint64),
	}
}

// EndAttempt closes the open attempt with its ladder facts, counts its
// outcome in the campaign taxonomy, and synthesizes the cause line.
func (r *Recorder) EndAttempt(f AttemptFacts) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushPendingLocked()
	r.endAttemptLocked(f)
}

func (r *Recorder) endAttemptLocked(f AttemptFacts) {
	att := r.att
	if att == nil {
		return
	}
	r.att = nil
	att.rec.EndSimSeconds = r.nowLocked()
	att.rec.Outcome = f.Outcome
	att.rec.UsableBits = f.UsableBits
	att.rec.Released = f.Released
	att.rec.Splits = f.Splits
	att.rec.MappingChanges = f.MappingChanges
	att.rec.CandidatePages = f.CandidatePages
	att.rec.ConfirmedPages = f.ConfirmedPages
	att.rec.Verdicts = sortedRows(att.verdicts)
	att.rec.Owners = sortedRows(att.owners)
	att.rec.Cause = causeFor(att, f)
	if f.Outcome != "" {
		r.outcomes[f.Outcome]++
	}
	if cur := r.cur; cur != nil {
		if f.Outcome != "" {
			cur.outcomes[f.Outcome]++
		}
		cur.rec.Attempts = append(cur.rec.Attempts, att.rec)
	}
}

// Absorb folds a completed scoped Recorder into this one, tagging its
// campaigns with the plan unit's name. The parallel experiment engine
// calls this at delivery, in declaration order, which is what keeps
// snapshots byte-identical at any -parallel setting. Nil-safe on both
// sides.
func (r *Recorder) Absorb(child *Recorder, unit string) {
	if r == nil || child == nil {
		return
	}
	child.mu.Lock()
	child.flushPendingLocked()
	child.endCampaignLocked()
	campaigns := make([]CampaignRecord, 0, len(child.absorbed)+len(child.done))
	campaigns = append(campaigns, child.absorbed...)
	campaigns = append(campaigns, child.done...)
	verdicts := copyCounts(child.verdicts)
	owners := copyCounts(child.owners)
	outcomes := copyCounts(child.outcomes)
	recorded, truncated := child.flipsRecorded, child.flipsTruncated
	child.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range campaigns {
		if c.Unit == "" {
			c.Unit = unit
		}
		r.absorbed = append(r.absorbed, c)
	}
	mergeCounts(r.verdicts, verdicts)
	mergeCounts(r.owners, owners)
	mergeCounts(r.outcomes, outcomes)
	r.flipsRecorded += recorded
	r.flipsTruncated += truncated
}

// Snapshot serializes the plane: absorbed unit campaigns in
// declaration order, this recorder's completed campaigns, and — when a
// campaign is mid-flight (the live /api/forensics view) — a view of it
// as recorded so far. Nil-safe (empty snapshot).
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Version:   Version,
		Campaigns: []CampaignRecord{},
		Verdicts:  []CountRow{},
		Owners:    []CountRow{},
		Outcomes:  []CountRow{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Campaigns = append(s.Campaigns, r.absorbed...)
	s.Campaigns = append(s.Campaigns, r.done...)
	if cur := r.cur; cur != nil {
		view := cur.rec
		view.EndSimSeconds = r.nowLocked()
		view.ProfileVerdicts = sortedRows(cur.prof)
		view.Outcomes = sortedRows(cur.outcomes)
		view.Attempts = append([]AttemptRecord{}, cur.rec.Attempts...)
		s.Campaigns = append(s.Campaigns, view)
	}
	s.Verdicts = sortedRows(r.verdicts)
	s.Owners = sortedRows(r.owners)
	s.Outcomes = sortedRows(r.outcomes)
	s.FlipsRecorded = r.flipsRecorded
	s.FlipsTruncated = r.flipsTruncated
	return s
}

func sortedRows(m map[string]uint64) []CountRow {
	rows := make([]CountRow, 0, len(m))
	for k, v := range m {
		rows = append(rows, CountRow{Key: k, N: v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows
}

func copyCounts(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func mergeCounts(dst, src map[string]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}
