package inspect

// ASCII rendering for introspection snapshots, shared by hh top's live
// and saved-run views so both show the same machine the same way.

import (
	"fmt"
	"strings"

	"hyperhammer/internal/report"
)

// shades orders cells from cold to hot; index scales linearly with the
// cell's fraction of the hottest cell, except that any non-zero cell is
// at least one step above blank so sparse activity stays visible.
const shades = " .:-=+*#%@"

// RenderHeatmap draws the per-bank activation heatmap as one shaded
// line per bank, with flip positions overlaid as 'F'.
func RenderHeatmap(s HeatmapSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DRAM activation heatmap  (%d banks x %d row buckets, %d rows/bank)\n",
		s.Banks, s.Buckets, s.Rows)
	fmt.Fprintf(&b, "activations=%d  flips=%d  max_row_window=%d\n",
		s.TotalActivations, s.TotalFlips, s.MaxRowWindowActivations)
	if s.Banks == 0 || s.Buckets == 0 {
		b.WriteString("(no machine bound)\n")
		return b.String()
	}
	var maxCell int64
	for _, bank := range s.Activations {
		for _, c := range bank {
			if c > maxCell {
				maxCell = c
			}
		}
	}
	fmt.Fprintf(&b, "scale: '%c'=0 .. '%c'=%d per bucket; F=applied flip\n",
		shades[0], shades[len(shades)-1], maxCell)
	for bank := 0; bank < s.Banks; bank++ {
		b.WriteString(fmt.Sprintf("bank %2d |", bank))
		for bucket := 0; bucket < s.Buckets; bucket++ {
			if bank < len(s.Flips) && bucket < len(s.Flips[bank]) && s.Flips[bank][bucket] > 0 {
				b.WriteByte('F')
				continue
			}
			var c int64
			if bank < len(s.Activations) && bucket < len(s.Activations[bank]) {
				c = s.Activations[bank][bucket]
			}
			b.WriteByte(shadeOf(c, maxCell))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// shadeOf picks the shade character for a cell.
func shadeOf(c, maxCell int64) byte {
	if c <= 0 || maxCell <= 0 {
		return shades[0]
	}
	idx := int(c * int64(len(shades)-1) / maxCell)
	if idx < 1 {
		idx = 1 // non-zero cells never render blank
	}
	if idx > len(shades)-1 {
		idx = len(shades) - 1
	}
	return shades[idx]
}

// RenderCensus draws the memory-layout census, one row per tagged
// census (plan units in declaration order, live host last).
func RenderCensus(s CensusSnapshot) string {
	t := report.NewTable("Memory-layout census",
		"unit", "t(s)", "vms", "ept_4k", "ept_2m", "splits", "tables",
		"buddy_free", "noise", "plugged_MiB", "flips")
	for _, tc := range s.Censuses {
		unit := tc.Unit
		if unit == "" {
			unit = "(host)"
		}
		c := tc.Census
		crashed := ""
		if c.Crashed {
			crashed = "!"
		}
		t.AddRow(unit+crashed, fmt.Sprintf("%.1f", c.SimSeconds), c.VMs,
			c.EPT.Leaves4K, c.EPT.Leaves2M, c.EPT.Splits, c.EPT.TotalTables,
			c.Buddy.FreePages, c.Buddy.NoiseUnmovable,
			c.Virtio.PluggedBytes>>20, c.Phys.FlipsApplied)
	}
	if len(s.Censuses) == 0 {
		t.AddRow("(none)", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
	}
	return t.String()
}

// RenderAlerts draws the fired-watchpoint summary and the recent-alert
// ring.
func RenderAlerts(s AlertsSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Watchpoint alerts: %d fired\n", s.Total)
	if len(s.ByRule) > 0 {
		t := report.NewTable("", "rule", "count")
		for _, rc := range s.ByRule {
			t.AddRow(rc.Rule, rc.Count)
		}
		b.WriteString(t.String())
	}
	if len(s.Recent) > 0 {
		t := report.NewTable("", "t(s)", "rule", "unit", "condition", "value")
		for _, a := range s.Recent {
			unit := a.Unit
			if unit == "" {
				unit = "-"
			}
			t.AddRow(fmt.Sprintf("%.2f", a.SimSeconds), a.Rule, unit, a.Expr,
				fmt.Sprintf("%g", a.Value))
		}
		b.WriteString(t.String())
	}
	return b.String()
}
