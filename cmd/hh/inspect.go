package main

// hh inspect analyzes a recorded JSONL trace file offline: the span
// tree with simulated per-phase timing and correct parent attribution,
// a per-kind event census, a phase timeline, and a summary of anomalies
// (lost events, unmatched spans, malformed lines). `hh inspect history`
// instead renders a run-history store's index (written with -store),
// the same table /api/history serves live.
//
// An artifact's sections have their own views: hh top RUN (heatmap,
// census, alerts), hh why (flip provenance), hh plan RUN (host-cost
// schedule).
//
//	hh run -short -trace run.trace
//	hh inspect run.trace                    # everything
//	hh inspect -tree run.trace              # just the span tree
//	hh inspect -kinds -anomalies run.trace
//	hh inspect -timeline run.trace
//	hh inspect history store                # run-history store index
//
// Exit status: 0 on success, 1 on a read error or a damaged trace
// (sequence gaps or malformed lines), 2 on usage errors.

import (
	"fmt"
	"os"
	"time"

	"hyperhammer/internal/obs"
	"hyperhammer/internal/report"
	"hyperhammer/internal/runstore"
)

func cmdInspect(args []string) int {
	// The history form rides ahead of flag parsing so the trace flags
	// don't apply to it.
	if len(args) > 0 && args[0] == "history" {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: hh inspect history storedir")
			return 2
		}
		st, err := openStore(args[1])
		if err != nil {
			return fail("inspect", 1, err)
		}
		defer st.Close()
		if err := runstore.RenderHistory(os.Stdout, st.History()); err != nil {
			return fail("inspect", 1, err)
		}
		return 0
	}
	fs := newFlags("inspect", "")
	tree := fs.Bool("tree", false, "print the span tree with per-phase simulated timing")
	kinds := fs.Bool("kinds", false, "print the per-kind event census")
	timeline := fs.Bool("timeline", false, "print top-level spans as a timeline over simulated time")
	anomalies := fs.Bool("anomalies", false, "print what the trace says went wrong")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hh inspect [-tree] [-kinds] [-timeline] [-anomalies] trace.jsonl")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail("inspect", 1, err)
	}
	defer f.Close()
	in, err := obs.Inspect(f)
	if err != nil {
		return fail("inspect", 1, err)
	}

	// No section selected: print everything.
	all := !*tree && !*kinds && !*timeline && !*anomalies
	out := os.Stdout
	fmt.Fprintf(out, "%s: %d events, %s simulated\n\n",
		fs.Arg(0), in.Events,
		report.FormatDuration(time.Duration(in.LastSimSeconds*float64(time.Second))))
	if all || *tree {
		in.WriteSpanTree(out)
		fmt.Fprintln(out)
	}
	if all || *timeline {
		in.WriteTimeline(out)
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
		return 1 // the trace is damaged; make scripts notice
	}
	return 0
}
