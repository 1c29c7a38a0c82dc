package main

// hh diff compares two runs and gates regressions.
//
// It accepts either two run artifacts (written by `hh run -artifact` /
// `hh tables -artifact`, or a committed baseline under
// testdata/baselines/) or two benchmark documents (BENCH_*.json from
// hh benchjson); the file kind is auto-detected. Because the
// simulation clock is simulated and runs are seed-deterministic,
// simulated figures are compared exactly by default — any drift means
// behavior changed — while wall-clock ns/op gets a generous band.
//
//	hh diff old.json new.json
//	hh diff -sim-tol 0.05 -count-tol 0.05 testdata/baselines/short-seed4.json run.json
//	hh diff -bench-tol 0.5 BENCH_old.json BENCH_new.json
//	hh diff -host-tol 0.5 old.json new.json   # gate plan host timings at ±50%
//	hh diff -all old.json new.json            # list in-tolerance rows too
//
// The plan section (host-cost schedule) is special: host wall-clock is
// non-deterministic, so its shape (unit count, per-unit completion)
// compares exactly under -count-tol while its durations compare under
// -host-tol, whose default of 1.0 lists them without ever gating.
//
// Exit status: 0 when every figure is within tolerance, 1 when any
// drifted beyond it, 2 on usage or read errors.

import (
	"fmt"

	"hyperhammer/internal/runartifact"
)

func cmdDiff(args []string) int {
	tol := runartifact.DefaultTolerances()
	fs := newFlags("diff", "usage: hh diff [flags] old.json new.json")
	all := fs.Bool("all", false, "print every compared figure, not just those beyond tolerance")
	fs.Float64Var(&tol.SimFrac, "sim-tol", tol.SimFrac, "relative tolerance on simulated-time figures")
	fs.Float64Var(&tol.SimAbs, "sim-abs", tol.SimAbs, "absolute tolerance on simulated-time figures (seconds)")
	fs.Float64Var(&tol.CountFrac, "count-tol", tol.CountFrac, "relative tolerance on counters and outcomes")
	fs.Float64Var(&tol.CountAbs, "count-abs", tol.CountAbs, "absolute tolerance on counters and outcomes")
	fs.Float64Var(&tol.BenchFrac, "bench-tol", tol.BenchFrac, "relative tolerance on benchmark ns/op")
	fs.Float64Var(&tol.HostFrac, "host-tol", tol.HostFrac, "relative tolerance on plan host-time figures (1.0 lists without gating)")
	fs.Float64Var(&tol.HostAbs, "host-abs", tol.HostAbs, "absolute tolerance on plan host-time figures (seconds)")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	artOld, benchOld, err := load(oldPath)
	if err != nil {
		return fail("diff", 2, err)
	}
	artNew, benchNew, err := load(newPath)
	if err != nil {
		return fail("diff", 2, err)
	}
	var d *runartifact.Diff
	switch {
	case artOld != nil && artNew != nil:
		if notice := configNotice(artOld, artNew); notice != "" {
			fmt.Println(notice)
		}
		d = runartifact.Compare(artOld, artNew, tol)
	case benchOld != nil && benchNew != nil:
		d = runartifact.CompareBench(benchOld, benchNew, tol)
	default:
		return fail("diff", 2, fmt.Errorf("%s and %s are different document kinds (artifact vs bench)", oldPath, newPath))
	}

	if *all || d.Regressed() {
		fmt.Print(d.Table(!*all).String())
	}
	fmt.Println(d.Summary())
	if d.Regressed() {
		return 1
	}
	return 0
}

// configNotice returns the one-line context printed when the two runs
// claim different simulated inputs: figure drift is then expected
// configuration divergence, not necessarily a regression. Empty for
// same-config comparisons, and never a gating change — the tolerances
// still decide the exit status alone. Hashes are recomputed for
// artifacts written before the header carried them.
func configNotice(a, b *runartifact.Artifact) string {
	oldHash, newHash := a.ConfigHash, b.ConfigHash
	if oldHash == "" {
		oldHash = a.ComputeConfigHash()
	}
	if newHash == "" {
		newHash = b.ComputeConfigHash()
	}
	if oldHash == newHash {
		return ""
	}
	return fmt.Sprintf("comparing same-config runs? no (config %s vs %s): expect figure drift from the config change", oldHash, newHash)
}
