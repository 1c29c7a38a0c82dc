package attack

import (
	"testing"

	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/trace"
)

// TestCampaignSpanNesting verifies the span parenting a campaign
// records: one attack.campaign root, the one-time profile and every
// attempt as its children, and each attempt's steer/exploit phases
// under that attempt — never under the campaign or a sibling.
func TestCampaignSpanNesting(t *testing.T) {
	h := bigHost(t, 61)
	rec := trace.New(nil, 4096)
	rec.BindClock(h.Clock)
	cfg := bigAttackConfig()
	cfg.Trace = rec
	_, err := RunCampaign(h, CampaignConfig{
		Attack:      cfg,
		VM:          kvm.VMConfig{MemSize: 3584 * memdef.MiB, VFIOGroups: 1},
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	type spanInfo struct {
		name   string
		parent uint64
	}
	spans := make(map[uint64]spanInfo)
	for _, ev := range rec.Recent() {
		if ev.Kind != "span.start" {
			continue
		}
		id, _ := ev.Data["span"].(uint64)
		parent, _ := ev.Data["parent"].(uint64)
		name, _ := ev.Data["name"].(string)
		spans[id] = spanInfo{name: name, parent: parent}
	}

	var campaignID uint64
	for id, s := range spans {
		if s.name == "attack.campaign" {
			if campaignID != 0 {
				t.Fatal("two campaign spans")
			}
			campaignID = id
		}
	}
	if campaignID == 0 {
		t.Fatal("no campaign span recorded")
	}
	counts := make(map[string]int)
	for _, s := range spans {
		counts[s.name]++
		switch s.name {
		case "attack.campaign":
			if s.parent != 0 {
				t.Errorf("campaign has parent %d", s.parent)
			}
		case "attack.profile", "attack.attempt":
			if s.parent != campaignID {
				t.Errorf("%s parented to %d, want campaign %d", s.name, s.parent, campaignID)
			}
		case "attack.steer", "attack.exploit":
			p, ok := spans[s.parent]
			if !ok || p.name != "attack.attempt" {
				t.Errorf("%s parented to %q, want an attempt", s.name, p.name)
			}
		}
	}
	if counts["attack.attempt"] != 3 || counts["attack.profile"] != 1 {
		t.Errorf("span counts = %v", counts)
	}
	if counts["attack.steer"] == 0 {
		t.Errorf("no steer spans recorded: %v", counts)
	}
}
