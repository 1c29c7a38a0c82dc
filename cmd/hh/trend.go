package main

// hh trend folds a run-history store (written by `hh run -store` /
// `hh tables -store`) into cross-run figure trends: one time series per
// figure per experiment lineage, with min/median/last, ASCII
// sparklines, and first-regressed-run attribution.
//
// Simulated figures are compared exactly, as hh diff does — the
// simulation is seed-deterministic, so ANY drift between same-config
// runs of the same code is a determinism regression. Drift that
// coincides with a config-hash change is classified "config" instead
// (the lineage's knobs moved). Host-cost figures are wall clock: their
// trajectories are listed and never gated (`make hotpath-gate` is the
// one host-cost gate).
//
//	hh trend                        # trend report over ./store
//	hh trend -store /path/to/store -json
//	hh trend -last 10 -since 24h    # newest runs only
//
// Exit status, matching hh diff: 0 when no figure regressed, 1 when
// any did, 2 on usage or read errors (including a store directory that
// does not exist).

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hyperhammer/internal/runstore"
)

func cmdTrend(args []string) int {
	var opts runstore.TrendOptions
	fs := newFlags("trend", "usage: hh trend [flags]")
	storeDir := fs.String("store", "store", "run-history store directory to fold")
	jsonOut := fs.Bool("json", false, "emit the trend report as JSON (the /api/trend document)")
	fs.IntVar(&opts.LastN, "last", 0, "keep only the newest N runs of each lineage (0 = all)")
	since := fs.Duration("since", 0, "keep only runs ingested within this window (e.g. 24h; 0 = all)")
	width := fs.Int("width", 48, "sparkline width in cells (0 = unbounded)")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	if *since > 0 {
		opts.Since = time.Now().UTC().Add(-*since)
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return 2
	}

	store, err := openStore("trend", *storeDir)
	if err != nil {
		return fail("trend", 2, err)
	}
	defer store.Close()
	r := store.Trend(opts)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return fail("trend", 2, err)
		}
	} else {
		if err := runstore.RenderReport(os.Stdout, r, *width); err != nil {
			return fail("trend", 2, err)
		}
		// Attribute each lineage's first divergence figure-by-figure by
		// diffing the stored artifacts on either side of it.
		for i := range r.Groups {
			g := &r.Groups[i]
			if !g.SimDrift {
				continue
			}
			deltas, err := store.DriftDetail(g, 12)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hh trend:", err)
				continue
			}
			fmt.Printf("\nfirst divergence of %s, figure by figure (run %s):\n", g.Key, g.FirstDriftRun)
			for _, d := range deltas {
				fmt.Printf("  %-8s %-40s %g -> %g (%+g)\n", d.Kind, d.Key, d.A, d.B, d.Delta)
			}
		}
	}
	if r.Regressed() {
		return 1
	}
	return 0
}
