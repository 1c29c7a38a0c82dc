package main

// hh diff compares two runs and gates regressions.
//
// It reads two runs: artifact files (written by `hh run -artifact` /
// `hh tables -artifact`, or a committed baseline under
// testdata/baselines/) or stored runs, STORE/RUN-ID (written by
// `-store`). Because the simulation clock is simulated and
// runs are seed-deterministic, every simulated figure is compared
// exactly — any drift means behavior changed.
//
//	hh diff old.json new.json
//	hh diff testdata/baselines/short-seed4.json run.json
//	hh diff -all old.json new.json            # list unflagged rows too
//	hh diff store/000001-HASH store/000002-HASH
//
// The plan section (host-cost schedule) is special: host wall-clock is
// non-deterministic, so its shape (unit count, per-unit completion)
// compares exactly while its durations are listed and never gated.
// Host cost has one gate, `make hotpath-gate`.
//
// Exit status: 0 when every simulated figure matches, 1 when any
// moved, 2 on usage or read errors.

import (
	"fmt"

	"hyperhammer/internal/runartifact"
)

func cmdDiff(args []string) int {
	fs := newFlags("diff", "usage: hh diff [flags] old new   (an artifact file or STORE/RUN-ID)")
	all := fs.Bool("all", false, "print every compared figure, not just the flagged ones")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	artOld, err := load(fs.Arg(0))
	if err != nil {
		return fail("diff", 2, err)
	}
	artNew, err := load(fs.Arg(1))
	if err != nil {
		return fail("diff", 2, err)
	}
	if notice := configNotice(artOld, artNew); notice != "" {
		fmt.Println(notice)
	}
	d := runartifact.Compare(artOld, artNew)

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
// same-config comparisons, and never a gating change — the figures
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
