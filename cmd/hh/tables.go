package main

// hh tables regenerates the paper's evaluation: every table, the
// figure, and the supplementary analyses, on the simulated substrate.
//
//	hh tables -all                  # everything (Table 3 takes minutes)
//	hh tables -table 1 -table 2     # specific tables
//	hh tables -figure 3             # the noise-page traces
//	hh tables -analysis -extras     # closed-form + Section 6 analyses
//	hh tables -ablations            # design-choice ablations
//	hh tables -short -all           # reduced-scale quick pass
//
// Results print on stdout, identical at any -parallel; progress lines go
// to stderr. Exit status: 0 on success, 2 when nothing is selected, 1
// on an experiment error or when any requested output could not be
// written.

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"hyperhammer/experiments"
	"hyperhammer/internal/runartifact"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint(*l) }

func (l *intList) Set(v string) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return err
	}
	*l = append(*l, n)
	return nil
}

func cmdTables(args []string) int {
	fs := newFlags("tables", "")
	var tables intList
	figure := fs.Bool("figure", false, "reproduce Figure 3 (noise-page traces)")
	analysis := fs.Bool("analysis", false, "Section 5.3 closed-form analysis")
	extras := fs.Bool("extras", false, "Section 5.1/6 analyses (DRAMDig, quarantine, Xen, balloon)")
	ablations := fs.Bool("ablations", false, "design-choice ablations")
	all := fs.Bool("all", false, "everything")
	short := fs.Bool("short", false, "reduced scale (seconds instead of minutes)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	attempts := fs.Int("attempts", 0, "Table 3 attempt cap (0 = default)")
	parallel := fs.Int("parallel", 0, "worker-pool size for independent experiment units (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
	var out outputs
	out.register(fs)
	fs.Var(&tables, "table", "table number to reproduce (repeatable: 1, 2, 3)")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	want := func(n int) bool {
		if *all {
			return true
		}
		for _, t := range tables {
			if t == n {
				return true
			}
		}
		return false
	}
	*figure = *figure || *all
	*analysis = *analysis || *all
	*extras = *extras || *all
	*ablations = *ablations || *all
	// The normalized experiment selection, in canonical order. This is
	// what the artifact records as deterministic config: unlike the raw
	// arguments it is independent of flag order, repetition, and
	// host-only flags, so two runs selecting the same experiments hash
	// the same.
	var selected []string
	for n := 1; n <= 3; n++ {
		if want(n) {
			selected = append(selected, fmt.Sprintf("table%d", n))
		}
	}
	for _, x := range []struct {
		on   bool
		name string
	}{{*figure, "figure3"}, {*analysis, "analysis"}, {*extras, "extras"}, {*ablations, "ablations"}} {
		if x.on {
			selected = append(selected, x.name)
		}
	}

	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "hh tables: nothing selected; try -all or -table N (hh tables -h lists every flag)")
		return 2
	}

	s, err := openSession("tables", out, os.Stderr)
	if err != nil {
		return fail("tables", 1, err)
	}
	o := experiments.Options{Scope: s.Scope, Obs: s.plane, Seed: *seed, Short: *short, MaxAttempts: *attempts, Parallel: *parallel}
	p := experiments.NewPlan(o)
	p.SetProfiler(s.profiler)
	err = s.publish(func() *runartifact.Artifact {
		a := s.newArtifact("hh-tables", *seed, *short)
		a.Config["attempts"] = strconv.Itoa(*attempts)
		a.Config["parallel"] = strconv.Itoa(*parallel)
		// "selected" is the canonical experiment set (enters
		// ConfigHash); "selection" keeps the raw arguments for humans
		// and is excluded from the hash as host-only (it drags output
		// paths and -parallel in).
		a.Config["selected"] = strings.Join(selected, ",")
		a.Config["selection"] = strings.Join(args, " ")
		return a
	}, p.Schedule)
	if err != nil {
		return fail("tables", 1, err)
	}

	// Every selected experiment registers its units on the shared plan;
	// the plan fans independent units across the worker pool and folds
	// results — values and telemetry alike — in declaration order, so
	// stdout, metrics, traces and the artifact are identical at any
	// -parallel setting. Printing happens after Run, from the resolved
	// futures, in the same order as a sequential run.
	var prints []func()
	queue := func(what string, print func()) {
		s.log.Info("queueing", "artifact", what)
		prints = append(prints, print)
	}
	var t1f *experiments.Future[*experiments.Table1Result]
	if want(1) {
		t1f = p.Table1()
		queue("table 1", func() { fmt.Println(t1f.Get().Table()) })
	}
	if want(2) {
		f := p.Table2()
		queue("table 2", func() { fmt.Println(f.Get().Table()) })
	}
	if want(3) {
		f := p.Table3()
		queue("table 3", func() { fmt.Println(f.Get().Table()) })
	}
	if *figure {
		f := p.Figure3()
		queue("figure 3", func() {
			fmt.Println(f.Get().Figure())
			fmt.Println("summary:")
			fmt.Println(f.Get().Figure().Summary())
		})
	}
	if *analysis {
		in := t1f
		if in == nil {
			in = experiments.Resolved[*experiments.Table1Result](nil)
		}
		f := p.Analysis(in)
		queue("analysis", func() {
			fmt.Println(f.Get().Table())
			fmt.Println(experiments.VMSize(o).Table())
		})
	}
	if *extras {
		dd, mit, xen, bal := p.DRAMDig(), p.Mitigation(), p.Xen(), p.Balloon()
		trr, ecc, mh := p.TRR(), p.ECC(), p.Multihit()
		queue("extras", func() {
			fmt.Println(dd.Get().Table())
			fmt.Println(mit.Get().Table())
			fmt.Println(xen.Get().Table())
			fmt.Println(bal.Get().Table())
			fmt.Println(trr.Get().Table())
			fmt.Println(ecc.Get().Table())
			fmt.Println(mh.Get().Table())
		})
	}
	if *ablations {
		side, ex, spray := p.AblationSidedness(), p.AblationNoExhaust(), p.AblationSpraySize()
		thp, pcp := p.AblationTHP(), p.AblationPCPNoise()
		queue("ablations", func() {
			fmt.Println(side.Get().Table())
			fmt.Println(ex.Get().Table())
			fmt.Println(spray.Get().Table())
			fmt.Println(thp.Get().Table())
			fmt.Println(pcp.Get().Table())
		})
	}

	s.log.Info("running", "units", strconv.Itoa(p.Units()))
	if err := p.Run(); err != nil {
		return s.exit(fail("tables", 1, err))
	}
	for _, print := range prints {
		print()
	}
	return s.exit(0)
}
