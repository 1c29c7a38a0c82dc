package forensics

import (
	"fmt"
	"io"
	"strings"
)

// This file renders forensics snapshots as text for hh why.

// campaignLabel names a campaign for display.
func campaignLabel(i int, c *CampaignRecord) string {
	if c.Unit != "" {
		return fmt.Sprintf("campaign %d (%s)", i, c.Unit)
	}
	return fmt.Sprintf("campaign %d", i)
}

// WriteSummary renders the failure-taxonomy view: per campaign, the
// attempt timeline with outcome and cause, then the outcome table.
func (s *Snapshot) WriteSummary(w io.Writer) {
	if len(s.Campaigns) == 0 {
		fmt.Fprintln(w, "no campaigns recorded")
		writeTotals(w, s)
		return
	}
	for i := range s.Campaigns {
		c := &s.Campaigns[i]
		fmt.Fprintf(w, "%s: %d attempt(s), sim %.1fs → %.1fs\n",
			campaignLabel(i, c), len(c.Attempts), c.StartSimSeconds, c.EndSimSeconds)
		if len(c.ProfileVerdicts) > 0 {
			fmt.Fprintf(w, "  profile-phase flip verdicts: %s\n", rowsLine(c.ProfileVerdicts))
		}
		for j := range c.Attempts {
			a := &c.Attempts[j]
			fmt.Fprintf(w, "  attempt %d [t=%.1fs]: %s — %s\n",
				a.Index, a.StartSimSeconds, a.Outcome, a.Cause)
		}
		if len(c.Outcomes) > 0 {
			fmt.Fprintf(w, "  outcome taxonomy: %s\n", rowsLine(c.Outcomes))
		}
	}
	writeTotals(w, s)
}

func writeTotals(w io.Writer, s *Snapshot) {
	if len(s.Verdicts) > 0 {
		fmt.Fprintf(w, "flip verdicts (all events): %s\n", rowsLine(s.Verdicts))
	}
	if len(s.Owners) > 0 {
		fmt.Fprintf(w, "landed-flip frame owners: %s\n", rowsLine(s.Owners))
	}
	if s.FlipsTruncated > 0 {
		fmt.Fprintf(w, "flip detail retained for %d event(s); %d dropped beyond the per-attempt bound\n",
			s.FlipsRecorded, s.FlipsTruncated)
	}
}

func rowsLine(rows []CountRow) string {
	parts := make([]string, 0, len(rows))
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s×%d", r.Key, r.N))
	}
	return strings.Join(parts, ", ")
}

// FindAttempt locates attempt `index` — in the named unit's campaign
// when unit is non-empty, otherwise in the first campaign containing
// it.
func (s *Snapshot) FindAttempt(unit string, index int) (*CampaignRecord, *AttemptRecord, bool) {
	for i := range s.Campaigns {
		c := &s.Campaigns[i]
		if unit != "" && c.Unit != unit {
			continue
		}
		for j := range c.Attempts {
			if c.Attempts[j].Index == index {
				return c, &c.Attempts[j], true
			}
		}
	}
	return nil, nil, false
}

// WriteAttempt renders one attempt's full causal lineage: the ladder
// facts, then every retained flip with its aggressors, verdict, and —
// for landed flips — the owner frame the flip corrupted.
func WriteAttempt(w io.Writer, c *CampaignRecord, a *AttemptRecord) {
	fmt.Fprintf(w, "attempt %d: %s\n", a.Index, a.Outcome)
	fmt.Fprintf(w, "  cause: %s\n", a.Cause)
	fmt.Fprintf(w, "  sim time: %.1fs → %.1fs\n", a.StartSimSeconds, a.EndSimSeconds)
	fmt.Fprintf(w, "  ladder: usableBits=%d released=%d splits=%d mappingChanges=%d candidatePages=%d confirmedPages=%d\n",
		a.UsableBits, a.Released, a.Splits, a.MappingChanges, a.CandidatePages, a.ConfirmedPages)
	if len(a.Verdicts) > 0 {
		fmt.Fprintf(w, "  flip verdicts: %s\n", rowsLine(a.Verdicts))
	}
	if len(a.Owners) > 0 {
		fmt.Fprintf(w, "  landed-flip owners: %s\n", rowsLine(a.Owners))
	}
	for i := range a.Flips {
		writeFlip(w, &a.Flips[i])
	}
	if a.FlipsTruncated > 0 {
		fmt.Fprintf(w, "  (+%d flip event(s) beyond the per-attempt detail bound)\n", a.FlipsTruncated)
	}
}

func writeFlip(w io.Writer, f *FlipRecord) {
	fmt.Fprintf(w, "  [t=%.1fs] %s: bit %d of HPA %#x (%s, bank %d row %d)\n",
		f.SimSeconds, f.Verdict, f.Bit, f.HPA, f.Direction, f.Bank, f.Row)
	if len(f.Aggressors) > 0 {
		parts := make([]string, 0, len(f.Aggressors))
		for _, ag := range f.Aggressors {
			parts = append(parts, fmt.Sprintf("bank %d row %d ×%d", ag.Bank, ag.Row, ag.Activations))
		}
		fmt.Fprintf(w, "      aggressors: %s\n", strings.Join(parts, "; "))
	}
	if len(f.Neutralized) > 0 {
		parts := make([]string, 0, len(f.Neutralized))
		for _, ag := range f.Neutralized {
			parts = append(parts, fmt.Sprintf("bank %d row %d", ag.Bank, ag.Row))
		}
		fmt.Fprintf(w, "      TRR-neutralized: %s\n", strings.Join(parts, "; "))
	}
	if f.Threshold > 0 {
		fmt.Fprintf(w, "      disturbance %.0f vs threshold %.0f (rounds %d requested, %d within refresh window)\n",
			f.Disturbance, f.Threshold, f.RoundsRequested, f.RoundsEffective)
	}
	if f.Owner != nil {
		switch f.Owner.Kind {
		case OwnerEPTTable:
			fmt.Fprintf(w, "      owner: EPT table page (level %d) of VM %d — corrupted EPTE redirects that VM's translation\n",
				f.Owner.Level, f.Owner.VM)
		case OwnerIOPTTable:
			fmt.Fprintf(w, "      owner: IOPT table page of VM %d\n", f.Owner.VM)
		case OwnerGuestFrame:
			fmt.Fprintf(w, "      owner: guest frame of VM %d (GPA %#x)\n", f.Owner.VM, f.Owner.GPA)
		case OwnerKernel:
			fmt.Fprintf(w, "      owner: host kernel page\n")
		default:
			fmt.Fprintf(w, "      owner: %s\n", f.Owner.Kind)
		}
	}
}
