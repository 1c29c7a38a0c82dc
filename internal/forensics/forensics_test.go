package forensics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/simtime"
)

// TestNilReceiver drives every Recorder method through a nil receiver:
// the plane is threaded through configs as a plain pointer, so every
// call site relies on nil being a silent no-op.
func TestNilReceiver(t *testing.T) {
	var r *Recorder
	if s := r.Scoped(); s != nil {
		t.Errorf("nil.Scoped() = %v, want nil", s)
	}
	r.BindClock(new(simtime.Clock))
	r.BeginHammerOp(dram.FlipOpInfo{Rounds: 1})
	r.RecordFlipEvent(dram.FlipEvent{Verdict: dram.FlipFired})
	r.ResolveFlip(0, 0, VerdictLanded, &Owner{Kind: OwnerFree})
	r.BeginCampaign(1)
	r.BeginAttempt(1)
	r.EndAttempt(AttemptFacts{Index: 1, Outcome: OutcomeEscaped})
	r.EndCampaign()
	r.Absorb(nil, "unit")
	r.Absorb(New(), "unit")
	New().Absorb(r, "unit")

	s := r.Snapshot()
	if s.Version != Version {
		t.Errorf("nil snapshot version = %d, want %d", s.Version, Version)
	}
	if s.Campaigns == nil || s.Verdicts == nil || s.Owners == nil || s.Outcomes == nil {
		t.Error("nil snapshot carries nil slices")
	}
}

// TestSnapshotJSONNeverNull pins the serialization contract consumed
// by /api/forensics and hh-why -json: every collection marshals as [],
// never null, from an empty recorder, a nil recorder, and a populated
// one whose attempt saw no flips.
func TestSnapshotJSONNeverNull(t *testing.T) {
	cases := map[string]*Recorder{
		"nil":   nil,
		"empty": New(),
	}
	populated := New()
	populated.BeginCampaign(2)
	populated.BeginAttempt(1)
	populated.EndAttempt(AttemptFacts{Index: 1, Outcome: OutcomeNoUsableBit})
	populated.EndCampaign()
	cases["populated"] = populated

	for name, r := range cases {
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		if bytes.Contains(data, []byte("null")) {
			t.Errorf("%s snapshot JSON contains null: %s", name, data)
		}
	}
}

// TestFullLineage walks one campaign through the recorder exactly as
// the wired pipeline does — dram emits a fired candidate, kvm resolves
// it to landed with an owner, attack closes the attempt — and checks
// the assembled record end to end.
func TestFullLineage(t *testing.T) {
	clock := new(simtime.Clock)
	r := New()
	r.BindClock(clock)

	r.BeginCampaign(3)

	// Profiling-phase event before any attempt opens: lands in the
	// campaign's profile bucket, not an attempt.
	r.BeginHammerOp(dram.FlipOpInfo{
		Aggressors: []dram.RowRef{{Bank: 1, Row: 10}, {Bank: 1, Row: 12}},
		Rounds:     250_000, WindowRounds: 250_000,
	})
	r.RecordFlipEvent(dram.FlipEvent{
		Addr: 0x1000, Bit: 3, Row: dram.RowRef{Bank: 1, Row: 11},
		Disturbance: 500_000, Threshold: 130_000, Verdict: dram.FlipFired,
	})
	r.ResolveFlip(0x1000, 3, VerdictDirectionFiltered, nil)

	clock.Advance(2 * time.Second)
	r.BeginAttempt(1)
	r.BeginHammerOp(dram.FlipOpInfo{
		Aggressors:  []dram.RowRef{{Bank: 2, Row: 20}, {Bank: 2, Row: 22}, {Bank: 2, Row: 24}},
		Neutralized: []dram.RowRef{{Bank: 2, Row: 24}},
		Rounds:      300_000, WindowRounds: 250_000,
	})
	r.RecordFlipEvent(dram.FlipEvent{
		Addr: 0x2000, Bit: 5, Direction: dram.FlipOneToZero,
		Row: dram.RowRef{Bank: 2, Row: 21}, Disturbance: 400_000,
		Threshold: 150_000, Verdict: dram.FlipFired,
	})
	r.RecordFlipEvent(dram.FlipEvent{
		Addr: 0x2008, Bit: 1, Row: dram.RowRef{Bank: 2, Row: 23},
		Disturbance: 260_000, Threshold: 200_000, Verdict: dram.FlipTRRRefreshed,
	})
	r.ResolveFlip(0x2000, 5, VerdictLanded, &Owner{Kind: OwnerEPTTable, VM: 2, Level: 1})
	clock.Advance(time.Second)
	r.EndAttempt(AttemptFacts{
		Index: 1, Outcome: OutcomeEscaped, UsableBits: 4, Released: 1,
		MappingChanges: 1, CandidatePages: 2, ConfirmedPages: 1,
	})
	r.EndCampaign()

	s := r.Snapshot()
	if len(s.Campaigns) != 1 {
		t.Fatalf("campaigns = %d, want 1", len(s.Campaigns))
	}
	c := s.Campaigns[0]
	if got := rowsLine(c.ProfileVerdicts); got != "direction-filtered×1" {
		t.Errorf("profile verdicts = %q", got)
	}
	if len(c.Attempts) != 1 {
		t.Fatalf("attempts = %d, want 1", len(c.Attempts))
	}
	a := c.Attempts[0]
	if a.Outcome != OutcomeEscaped {
		t.Errorf("outcome = %q", a.Outcome)
	}
	if !strings.Contains(a.Cause, "redirected an EPTE") {
		t.Errorf("escape cause %q does not name the EPTE redirect", a.Cause)
	}
	if a.StartSimSeconds != 2 || a.EndSimSeconds != 3 {
		t.Errorf("attempt sim window = [%v, %v], want [2, 3]", a.StartSimSeconds, a.EndSimSeconds)
	}
	if got := rowsLine(a.Verdicts); got != "landed×1, trr-refreshed×1" {
		t.Errorf("attempt verdicts = %q", got)
	}
	if got := rowsLine(a.Owners); got != "ept-table×1" {
		t.Errorf("attempt owners = %q", got)
	}
	if len(a.Flips) != 2 {
		t.Fatalf("flip records = %d, want 2", len(a.Flips))
	}
	// The trr-refreshed event commits immediately; the fired candidate
	// commits when the host stage resolves it, so it lands second.
	landed := a.Flips[1]
	if landed.Verdict != VerdictLanded || landed.HPA != 0x2000 || landed.Bit != 5 {
		t.Errorf("landed record = %+v", landed)
	}
	if landed.Owner == nil || landed.Owner.Kind != OwnerEPTTable || landed.Owner.VM != 2 {
		t.Errorf("landed owner = %+v", landed.Owner)
	}
	if len(landed.Aggressors) != 3 {
		t.Fatalf("aggressors = %d, want 3", len(landed.Aggressors))
	}
	// The neutralized row appears in the aggressor set with zero
	// activations and again in the Neutralized list.
	if landed.Aggressors[2].Row != 24 || landed.Aggressors[2].Activations != 0 {
		t.Errorf("neutralized aggressor = %+v, want row 24 with 0 activations", landed.Aggressors[2])
	}
	if landed.Aggressors[0].Activations != 250_000 {
		t.Errorf("active aggressor activations = %d, want window-clipped 250000", landed.Aggressors[0].Activations)
	}
	if len(landed.Neutralized) != 1 || landed.Neutralized[0].Row != 24 {
		t.Errorf("neutralized list = %+v", landed.Neutralized)
	}
	if landed.RoundsRequested != 300_000 || landed.RoundsEffective != 250_000 {
		t.Errorf("rounds = %d/%d, want 300000/250000", landed.RoundsRequested, landed.RoundsEffective)
	}

	if got := rowsLine(s.Verdicts); got != "direction-filtered×1, landed×1, trr-refreshed×1" {
		t.Errorf("global verdicts = %q", got)
	}
	if got := rowsLine(s.Outcomes); got != "escaped×1" {
		t.Errorf("global outcomes = %q", got)
	}

	// The render path names the owner frame and the aggressors.
	var buf bytes.Buffer
	WriteAttempt(&buf, &c, &a)
	out := buf.String()
	for _, want := range []string{
		"attempt 1: escaped",
		"aggressors: bank 2 row 20 ×250000",
		"TRR-neutralized: bank 2 row 24",
		"owner: EPT table page (level 1) of VM 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteAttempt output missing %q:\n%s", want, out)
		}
	}
}

// TestFailureCauses checks the synthesized one-line causes of the
// no-mapping-change taxonomy: no flips at all, flips all vetoed, and
// flips landed in useless frames.
func TestFailureCauses(t *testing.T) {
	mk := func(events []dram.FlipEvent, resolve func(r *Recorder)) AttemptRecord {
		r := New()
		r.BeginCampaign(1)
		r.BeginAttempt(1)
		r.BeginHammerOp(dram.FlipOpInfo{
			Aggressors: []dram.RowRef{{Bank: 0, Row: 1}, {Bank: 0, Row: 3}},
			Rounds:     250_000, WindowRounds: 250_000,
		})
		for _, ev := range events {
			r.RecordFlipEvent(ev)
		}
		if resolve != nil {
			resolve(r)
		}
		r.EndAttempt(AttemptFacts{Index: 1, Outcome: OutcomeNoMappingChange})
		r.EndCampaign()
		s := r.Snapshot()
		return s.Campaigns[0].Attempts[0]
	}

	a := mk(nil, nil)
	if want := "no candidate flips"; !strings.Contains(a.Cause, want) {
		t.Errorf("no-flips cause %q missing %q", a.Cause, want)
	}

	a = mk([]dram.FlipEvent{
		{Addr: 0x10, Bit: 0, Verdict: dram.FlipTRRRefreshed},
		{Addr: 0x18, Bit: 2, Verdict: dram.FlipTRRRefreshed},
		{Addr: 0x20, Bit: 4, Verdict: dram.FlipFlakyNoFire},
	}, nil)
	if !strings.HasPrefix(a.Cause, "no flip landed: 2 refreshed away by the TRR tracker") {
		t.Errorf("vetoed cause = %q", a.Cause)
	}
	if !strings.Contains(a.Cause, "1 in flaky cells") {
		t.Errorf("vetoed cause %q does not list the flaky blocker", a.Cause)
	}

	a = mk([]dram.FlipEvent{
		{Addr: 0x30, Bit: 1, Verdict: dram.FlipFired},
	}, func(r *Recorder) {
		r.ResolveFlip(0x30, 1, VerdictLanded, &Owner{Kind: OwnerGuestFrame, VM: 1, GPA: 0x4000})
	})
	if want := "1 flip(s) landed but none corrupted a live EPT table page (owners: guest-frame×1)"; a.Cause != want {
		t.Errorf("useless-landing cause = %q, want %q", a.Cause, want)
	}
}

// TestAbsorbDeclarationOrder checks that Absorb appends unit campaigns
// in call order and merges totals — the property the parallel plan
// engine relies on for byte-identical snapshots at any -parallel N.
func TestAbsorbDeclarationOrder(t *testing.T) {
	parent := New()
	units := []string{"unit-a", "unit-b", "unit-c"}
	for i, name := range units {
		child := parent.Scoped()
		child.BeginCampaign(1)
		child.BeginAttempt(1)
		child.RecordFlipEvent(dram.FlipEvent{
			Addr: memdef.HPA(0x1000 * (i + 1)), Verdict: dram.FlipFlakyNoFire,
		})
		child.EndAttempt(AttemptFacts{Index: 1, Outcome: OutcomeNoMappingChange})
		// EndCampaign deliberately omitted: Absorb must close it.
		parent.Absorb(child, name)
	}
	s := parent.Snapshot()
	if len(s.Campaigns) != len(units) {
		t.Fatalf("campaigns = %d, want %d", len(s.Campaigns), len(units))
	}
	for i, name := range units {
		if s.Campaigns[i].Unit != name {
			t.Errorf("campaign %d unit = %q, want %q", i, s.Campaigns[i].Unit, name)
		}
	}
	if got := rowsLine(s.Verdicts); got != "flaky-no-fire×3" {
		t.Errorf("merged verdicts = %q", got)
	}
	if got := rowsLine(s.Outcomes); got != "no-mapping-change×3" {
		t.Errorf("merged outcomes = %q", got)
	}
}

// TestFlipDetailTruncation checks the per-attempt detail bound: counters
// keep counting, detail stops, and the truncation is reported.
func TestFlipDetailTruncation(t *testing.T) {
	r := New()
	r.BeginCampaign(1)
	r.BeginAttempt(1)
	r.BeginHammerOp(dram.FlipOpInfo{Rounds: 1, WindowRounds: 1})
	for i := 0; i < maxFlipsPerAttempt+6; i++ {
		r.RecordFlipEvent(dram.FlipEvent{
			Addr: memdef.HPA(i * 8), Bit: uint(i % 8), Verdict: dram.FlipFlakyNoFire,
		})
	}
	r.EndAttempt(AttemptFacts{Index: 1, Outcome: OutcomeNoMappingChange})
	r.EndCampaign()

	s := r.Snapshot()
	a := s.Campaigns[0].Attempts[0]
	if len(a.Flips) != maxFlipsPerAttempt {
		t.Errorf("retained flips = %d, want %d", len(a.Flips), maxFlipsPerAttempt)
	}
	if a.FlipsTruncated != 6 {
		t.Errorf("attempt truncated = %d, want 6", a.FlipsTruncated)
	}
	if got, want := rowsLine(a.Verdicts), fmt.Sprintf("flaky-no-fire×%d", maxFlipsPerAttempt+6); got != want {
		t.Errorf("verdict counters = %q, want %q", got, want)
	}
	if s.FlipsRecorded != maxFlipsPerAttempt || s.FlipsTruncated != 6 {
		t.Errorf("global detail = %d recorded / %d truncated, want %d/6", s.FlipsRecorded, s.FlipsTruncated, maxFlipsPerAttempt)
	}
}

// TestUnresolvedFiredFlush checks that fired candidates the host stage
// never resolves are flushed with their dram-stage verdict instead of
// leaking into the next attempt.
func TestUnresolvedFiredFlush(t *testing.T) {
	r := New()
	r.BeginCampaign(2)
	r.BeginAttempt(1)
	r.RecordFlipEvent(dram.FlipEvent{Addr: 0x100, Bit: 2, Verdict: dram.FlipFired})
	r.EndAttempt(AttemptFacts{Index: 1, Outcome: OutcomeNoMappingChange})
	r.BeginAttempt(2)
	r.EndAttempt(AttemptFacts{Index: 2, Outcome: OutcomeNoUsableBit})
	r.EndCampaign()

	s := r.Snapshot()
	a1 := s.Campaigns[0].Attempts[0]
	if len(a1.Flips) != 1 || a1.Flips[0].Verdict != dram.FlipFired {
		t.Errorf("attempt 1 flips = %+v, want one unresolved fired record", a1.Flips)
	}
	a2 := s.Campaigns[0].Attempts[1]
	if len(a2.Flips) != 0 {
		t.Errorf("attempt 2 inherited %d pending flip(s)", len(a2.Flips))
	}
}

// TestFindAttempt exercises the unit-scoped and unscoped lookups that
// back hh-why -attempt.
func TestFindAttempt(t *testing.T) {
	parent := New()
	for _, name := range []string{"first", "second"} {
		child := parent.Scoped()
		child.BeginCampaign(1)
		child.BeginAttempt(1)
		child.EndAttempt(AttemptFacts{Index: 1, Outcome: OutcomeNoUsableBit})
		child.EndCampaign()
		parent.Absorb(child, name)
	}
	s := parent.Snapshot()
	c, _, ok := s.FindAttempt("", 1)
	if !ok || c.Unit != "first" {
		t.Errorf("unscoped lookup hit unit %q, want first", c.Unit)
	}
	c, a, ok := s.FindAttempt("second", 1)
	if !ok || c.Unit != "second" || a.Index != 1 {
		t.Errorf("scoped lookup = (%v, %v, %v)", c, a, ok)
	}
	if _, _, ok := s.FindAttempt("", 99); ok {
		t.Error("lookup of absent attempt succeeded")
	}
}
