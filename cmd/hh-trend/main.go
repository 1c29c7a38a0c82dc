// Command hh-trend folds a run-history store (written by `hyperhammer
// -store` / `hh-tables -store`) into cross-run figure trends: one time
// series per figure per experiment lineage, with min/median/last,
// ASCII sparklines, and first-regressed-run attribution.
//
// Simulated figures are held to hh-diff's zero tolerance — the
// simulation is seed-deterministic, so ANY drift between same-config
// runs of the same code is a determinism regression. Drift that
// coincides with a config-hash change is classified "config" instead
// (the lineage's knobs moved). Host-cost figures and benchmark ns/op
// are wall clock, tracked with the -host-tol machinery: listed by
// default, gated only when a tolerance is requested (bench defaults to
// ±30% like hh-diff).
//
// Exit status, matching hh-diff: 0 when no figure regressed, 1 when
// any did, 2 on usage or read errors.
//
// Usage:
//
//	hh-trend                       # trend report over ./store
//	hh-trend -store /path/to/store -json
//	hh-trend -last 10 -since 24h   # newest runs only
//	hh-trend -host-tol 0.5         # gate host wall-clock at ±50%
//	hh-trend -bench BENCH_a.json BENCH_b.json   # bench trajectories from files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"hyperhammer/internal/benchfmt"
	"hyperhammer/internal/runstore"
)

func main() {
	opts := runstore.DefaultTrendOptions()
	var (
		storeDir = flag.String("store", "store", "run-history store directory to fold")
		jsonOut  = flag.Bool("json", false, "emit the trend report as JSON (the /api/trend document)")
		last     = flag.Int("last", 0, "keep only the newest N runs of each lineage (0 = all)")
		since    = flag.Duration("since", 0, "keep only runs ingested within this window (e.g. 24h; 0 = all)")
		hostTol  = flag.Float64("host-tol", opts.HostFrac, "relative tolerance on host-cost figures (1.0 lists without gating)")
		hostAbs  = flag.Float64("host-abs", opts.HostAbs, "absolute tolerance on host-cost figures (seconds)")
		benchTol = flag.Float64("bench-tol", opts.BenchFrac, "relative tolerance on benchmark ns/op")
		width    = flag.Int("width", 48, "sparkline width in cells (0 = unbounded)")
		bench    = flag.Bool("bench", false, "treat the positional arguments as BENCH_*.json documents (hh-benchjson output) and trend them in file order, no store needed")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hh-trend [flags]")
		fmt.Fprintln(os.Stderr, "       hh-trend -bench BENCH_old.json [BENCH_newer.json ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	opts.LastN = *last
	opts.HostFrac, opts.HostAbs = *hostTol, *hostAbs
	opts.BenchFrac = *benchTol
	if *since > 0 {
		opts.Since = time.Now().UTC().Add(-*since)
	}

	var r *runstore.Report
	var store *runstore.Store
	switch {
	case *bench:
		if flag.NArg() == 0 {
			flag.Usage()
			os.Exit(2)
		}
		r = runstore.Build(benchEntries(flag.Args()), opts)
	case flag.NArg() != 0:
		flag.Usage()
		os.Exit(2)
	default:
		var err error
		if store, err = runstore.Open(*storeDir); err != nil {
			fatal(err)
		}
		if err := store.Repaired(); err != nil {
			fmt.Fprintln(os.Stderr, "hh-trend: warning:", err)
		}
		defer store.Close()
		r = store.Trend(opts)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fatal(err)
		}
	} else {
		if err := runstore.RenderReport(os.Stdout, r, *width); err != nil {
			fatal(err)
		}
		// Attribute each lineage's first divergence figure-by-figure by
		// diffing the stored artifacts on either side of it.
		for i := range r.Groups {
			g := &r.Groups[i]
			if !g.SimDrift || store == nil {
				continue
			}
			deltas, err := store.DriftDetail(g, 12)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hh-trend:", err)
				continue
			}
			fmt.Printf("\nfirst divergence of %s, figure by figure (run %s):\n", g.Key, g.FirstDriftRun)
			for _, d := range deltas {
				fmt.Printf("  %-8s %-40s %g -> %g (%+g)\n", d.Kind, d.Key, d.A, d.B, d.Delta)
			}
		}
	}
	if r.Regressed() {
		os.Exit(1)
	}
}

// benchEntries loads BENCH documents as index entries, sequenced in
// argument order (oldest first), so committed benchmark history trends
// without ever having been ingested into a store.
func benchEntries(paths []string) []runstore.IndexEntry {
	entries := make([]runstore.IndexEntry, 0, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		var out benchfmt.Output
		err = json.NewDecoder(f).Decode(&out)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: corrupt bench document: %v", path, err))
		}
		if out.Benchmarks == nil {
			fatal(fmt.Errorf("%s: not a bench document (no benchmarks field)", path))
		}
		e := runstore.EntryFromBench(&out)
		e.Seq = i + 1
		e.RunID = path
		entries = append(entries, e)
	}
	return entries
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hh-trend:", err)
	os.Exit(2)
}
