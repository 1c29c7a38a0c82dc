// Command hh-inspect analyzes a recorded JSONL trace file offline:
// the span tree with simulated per-phase timing and correct parent
// attribution, a per-kind event census, a phase timeline, and a
// summary of anomalies (lost events, unmatched spans, malformed
// lines).
//
// The heatmap subcommand instead reads a run artifact (-artifact
// output) and renders its embedded DRAM heatmap, layout census, and
// watchpoint alert table — the same ASCII view as hh-top -once. The
// forensics subcommand renders the artifact's flip-provenance section
// (the same summary hh-why prints). The plan subcommand renders the
// artifact's host-cost schedule — Gantt chart, worker utilization,
// critical path — through the same renderer as hh-plan. The history
// subcommand renders a run-history store's index (written with -store)
// offline — the same table /api/history serves live.
//
// Usage:
//
//	hyperhammer -short -trace run.trace
//	hh-inspect run.trace             # everything
//	hh-inspect -tree run.trace       # just the span tree
//	hh-inspect -kinds -anomalies run.trace
//	hh-inspect -timeline -width 100 run.trace
//	hh-inspect heatmap run.json      # introspection sections of an artifact
//	hh-inspect forensics run.json    # flip-provenance section of an artifact
//	hh-inspect plan run.json         # host-cost schedule of an artifact
//	hh-inspect history store         # run-history store index (hh-trend's data)
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperhammer/internal/inspect"
	"hyperhammer/internal/obs"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/report"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
	"time"
)

func main() {
	// Subcommand dispatch rides ahead of flag parsing so the trace
	// flags don't apply to artifact rendering.
	if len(os.Args) > 1 && os.Args[1] == "heatmap" {
		if len(os.Args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: hh-inspect heatmap artifact.json")
			os.Exit(2)
		}
		if err := renderHeatmap(os.Args[2]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "forensics" {
		if len(os.Args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: hh-inspect forensics artifact.json")
			os.Exit(2)
		}
		if err := renderForensics(os.Args[2]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "plan" {
		if len(os.Args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: hh-inspect plan artifact.json")
			os.Exit(2)
		}
		if err := renderPlan(os.Args[2]); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "history" {
		if len(os.Args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: hh-inspect history storedir")
			os.Exit(2)
		}
		if err := renderHistory(os.Args[2]); err != nil {
			fatal(err)
		}
		return
	}
	tree := flag.Bool("tree", false, "print the span tree with per-phase simulated timing")
	kinds := flag.Bool("kinds", false, "print the per-kind event census")
	timeline := flag.Bool("timeline", false, "print top-level spans as a timeline over simulated time")
	anomalies := flag.Bool("anomalies", false, "print what the trace says went wrong")
	width := flag.Int("width", 72, "timeline width in characters")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hh-inspect [-tree] [-kinds] [-timeline] [-anomalies] trace.jsonl")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	in, err := obs.Inspect(f)
	if err != nil {
		fatal(err)
	}

	// No section selected: print everything.
	all := !*tree && !*kinds && !*timeline && !*anomalies
	out := os.Stdout
	fmt.Fprintf(out, "%s: %d events, %s simulated\n\n",
		flag.Arg(0), in.Events,
		report.FormatDuration(time.Duration(in.LastSimSeconds*float64(time.Second))))
	if all || *tree {
		in.WriteSpanTree(out)
		fmt.Fprintln(out)
	}
	if all || *timeline {
		in.WriteTimeline(out, *width)
		fmt.Fprintln(out)
	}
	if all || *kinds {
		in.WriteKinds(out)
		fmt.Fprintln(out)
	}
	if all || *anomalies {
		in.WriteAnomalies(out)
	}
	if in.SeqGaps > 0 || in.MalformedLines > 0 {
		os.Exit(1) // the trace is damaged; make scripts notice
	}
}

// renderHeatmap prints an artifact's introspection sections with the
// renderers shared with hh-top.
func renderHeatmap(path string) error {
	a, err := runartifact.ReadFile(path)
	if err != nil {
		return err
	}
	if a.Heatmap == nil && a.Census == nil && a.Alerts == nil {
		return fmt.Errorf("%s carries no introspection sections (produce it with -obs or -artifact)", path)
	}
	fmt.Printf("%s: tool=%s seed=%d scale=%s simSeconds=%.1f\n\n",
		path, a.Tool, a.Seed, a.Scale, a.SimSeconds)
	if a.Heatmap != nil {
		fmt.Println(inspect.RenderHeatmap(*a.Heatmap))
	}
	if a.Census != nil {
		fmt.Println(inspect.RenderCensus(*a.Census))
	}
	if a.Alerts != nil {
		fmt.Println(inspect.RenderAlerts(*a.Alerts))
	}
	return nil
}

// renderForensics prints an artifact's flip-provenance section — the
// same campaign summary cmd/hh-why renders (see hh-why for per-attempt
// lineage drill-down).
func renderForensics(path string) error {
	a, err := runartifact.ReadFile(path)
	if err != nil {
		return err
	}
	if a.Forensics == nil {
		return fmt.Errorf("%s carries no forensics section (produce it with -obs or -artifact)", path)
	}
	fmt.Printf("%s: tool=%s seed=%d scale=%s simSeconds=%.1f\n\n",
		path, a.Tool, a.Seed, a.Scale, a.SimSeconds)
	a.Forensics.WriteSummary(os.Stdout)
	return nil
}

// renderPlan prints an artifact's host-cost schedule with the renderer
// shared with hh-plan: Gantt chart, worker utilization, critical path,
// and top-slack units.
func renderPlan(path string) error {
	a, err := runartifact.ReadFile(path)
	if err != nil {
		return err
	}
	if a.Plan == nil {
		return fmt.Errorf("%s carries no plan section (produce it with -artifact on a build with the host-cost plane)", path)
	}
	fmt.Printf("%s: tool=%s seed=%d scale=%s simSeconds=%.1f\n\n",
		path, a.Tool, a.Seed, a.Scale, a.SimSeconds)
	return profile.RenderPlan(os.Stdout, a.Plan, 72)
}

// renderHistory prints a run-history store's index offline, mirroring
// /api/history: one row per ingested run with its config/content
// hashes and headline figures. hh-trend folds the same index into
// cross-run figure trends.
func renderHistory(dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("%s: %w (produce a store with hyperhammer -store or hh-tables -store)", dir, err)
	}
	s, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Repaired(); err != nil {
		fmt.Fprintln(os.Stderr, "hh-inspect: warning:", err)
	}
	return runstore.RenderHistory(os.Stdout, s.History())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hh-inspect:", err)
	os.Exit(1)
}
