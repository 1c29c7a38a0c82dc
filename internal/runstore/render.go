package runstore

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"hyperhammer/internal/report"
)

// sparkChars is the value ramp of the ASCII sparklines: every point of
// a figure trajectory is normalized min..max and mapped onto it, so a
// flat line renders as underscores and a regression as a climb toward
// '@'. Pure ASCII so CI logs and plain terminals render it unchanged.
const sparkChars = "_.:-=+*#%@"

// sparkWidth is the most cells a sparkline takes.
const sparkWidth = 48

// sparkline renders vals as a fixed-alphabet ASCII strip chart of at
// most sparkWidth cells.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	if len(vals) > sparkWidth {
		// Keep the newest points: trends care about where the series is
		// heading, and attribution lists the exact run anyway.
		vals = vals[len(vals)-sparkWidth:]
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkChars)-1))
		}
		b.WriteByte(sparkChars[i])
	}
	return b.String()
}

// RenderHistory renders a store index snapshot as the run-history
// table hh inspect history prints — one row per ingested run, newest
// last, mirroring /api/history.
func RenderHistory(w io.Writer, h HistorySnapshot) error {
	fmt.Fprintf(w, "Run history: %d run(s) in %s\n\n", len(h.Entries), h.Dir)
	t := report.NewTable("", "seq", "run", "tool", "seed", "scale", "config", "content", "version", "sim_s", "ingested")
	for _, e := range h.Entries {
		t.AddRow(e.Seq, e.RunID, e.Tool, e.Seed, e.Scale,
			e.ConfigHash, e.ContentHash, e.ToolVersion,
			strconv.FormatFloat(e.SimSeconds, 'g', -1, 64), e.IngestedAt)
	}
	_, err := io.WriteString(w, t.String())
	return err
}

// RenderReport renders the trend report as hh trend's default view:
// one block per lineage with its run roster, then a figure table with
// sparklines and first-regressed attribution.
func RenderReport(w io.Writer, r *Report) error {
	fmt.Fprintf(w, "Trend report: %d run(s), %d group(s), %d flagged figure(s)\n",
		r.Runs, len(r.Groups), r.Flagged)
	for i := range r.Groups {
		g := &r.Groups[i]
		fmt.Fprintf(w, "\n=== %s: %d run(s), %d config hash(es)\n", g.Key, len(g.Runs), g.ConfigHashes)
		for _, ref := range g.Runs {
			fmt.Fprintf(w, "  run %s  config=%s content=%s tool=%s\n",
				ref.RunID, ref.ConfigHash, ref.ContentHash, ref.ToolVersion)
		}
		switch {
		case g.SimDrift:
			fmt.Fprintf(w, "  DRIFT (%s) first at run %s: %s\n",
				g.DriftKind, g.FirstDriftRun, strings.Join(g.DriftFigures, ", "))
		case countKind(g, "sim") > 0 && len(g.Runs) > 1:
			fmt.Fprintf(w, "  simulated figures identical across all %d runs\n", len(g.Runs))
		}
		t := report.NewTable("", "figure", "kind", "min", "median", "last", "trend", "status")
		for _, f := range g.Figures {
			vals := make([]float64, len(f.Points))
			for j, p := range f.Points {
				vals[j] = p.V
			}
			status := "ok"
			if f.Regressed {
				status = "REGRESSED @" + f.FirstRegressedRun
			}
			t.AddRow(f.Name, f.Kind,
				fmtFigure(f.Min), fmtFigure(f.Median), fmtFigure(f.Last),
				sparkline(vals), status)
		}
		if _, err := io.WriteString(w, t.String()); err != nil {
			return err
		}
	}
	return nil
}

func countKind(g *GroupTrend, kind string) int {
	n := 0
	for _, f := range g.Figures {
		if f.Kind == kind {
			n++
		}
	}
	return n
}

// fmtFigure keeps fingerprints (large exact integers) readable while
// printing measured figures with full float precision.
func fmtFigure(v float64) string {
	if v == float64(int64(v)) && (v >= 1e6 || v <= -1e6) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
