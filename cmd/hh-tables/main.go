// Command hh-tables regenerates the paper's evaluation artifacts: every
// table, the figure, and the supplementary analyses, on the simulated
// substrate.
//
// Usage:
//
//	hh-tables -all                 # everything (Table 3 takes minutes)
//	hh-tables -table 1 -table 2    # specific tables
//	hh-tables -figure 3            # the noise-page traces
//	hh-tables -analysis -extras    # closed-form + Section 6 analyses
//	hh-tables -ablations           # design-choice ablations
//	hh-tables -short -all          # reduced-scale quick pass
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hyperhammer"
	"hyperhammer/experiments"
	"hyperhammer/internal/obs"
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

func main() {
	var tables intList
	figure := flag.Bool("figure", false, "reproduce Figure 3 (noise-page traces)")
	analysis := flag.Bool("analysis", false, "Section 5.3 closed-form analysis")
	extras := flag.Bool("extras", false, "Section 5.1/6 analyses (DRAMDig, quarantine, Xen, balloon)")
	ablations := flag.Bool("ablations", false, "design-choice ablations")
	all := flag.Bool("all", false, "everything")
	short := flag.Bool("short", false, "reduced scale (seconds instead of minutes)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	attempts := flag.Int("attempts", 0, "Table 3 attempt cap (0 = default)")
	tracePath := flag.String("trace", "", "write JSONL trace events from every booted host to this file")
	metricsPath := flag.String("metrics", "", "write aggregated metrics to this file at exit (Prometheus text; .json suffix selects a JSON snapshot)")
	obsAddr := flag.String("obs", "", "serve the live observability plane on this address (status page, /metrics, /api/series, SSE events, pprof)")
	obsSample := flag.Duration("obs-sample", time.Second, "simulated-time interval between observability samples")
	obsHold := flag.Duration("obs-hold", 0, "keep the observability server up this long (wall clock) after the run ends")
	artifactPath := flag.String("artifact", "", "write the self-describing run bundle (config, metrics, cost profile) to this file for hh-diff")
	storeDir := flag.String("store", "", "ingest the run bundle into this run-history store directory (config-hash indexed; hh-trend folds the stored history into cross-run trends)")
	chromePath := flag.String("chrome-trace", "", "write the host-cost schedule as Chrome trace_event JSON (loadable in Perfetto / chrome://tracing) to this file")
	parallel := flag.Int("parallel", 0, "worker-pool size for independent experiment units (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
	ledgerEpoch := flag.Duration("ledger-epoch", 0, "seal determinism-ledger fingerprint epochs at this simulated interval (0 disables the ledger entirely; hh-bisect localizes divergence between two ledgered artifacts)")
	flag.Var(&tables, "table", "table number to reproduce (repeatable: 1, 2, 3)")
	flag.Parse()

	// -artifact and -store both archive the run bundle, so everything
	// the bundle needs rides along whenever either is set.
	archive := *artifactPath != "" || *storeDir != ""
	var store *hyperhammer.RunStore
	if *storeDir != "" {
		var err error
		if store, err = hyperhammer.OpenRunStore(*storeDir); err != nil {
			fmt.Fprintf(os.Stderr, "hh-tables: %v\n", err)
			os.Exit(1)
		}
		if err := store.Repaired(); err != nil {
			fmt.Fprintln(os.Stderr, "hh-tables: warning:", err)
		}
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
	// The normalized experiment selection, in canonical order. This is
	// what the artifact records as deterministic config: unlike the raw
	// argv it is independent of flag order, repetition, and host-only
	// flags, so two runs selecting the same experiments hash the same.
	var selParts []string
	for n := 1; n <= 3; n++ {
		if want(n) {
			selParts = append(selParts, fmt.Sprintf("table%d", n))
		}
	}
	if *figure || *all {
		selParts = append(selParts, "figure3")
	}
	if *analysis || *all {
		selParts = append(selParts, "analysis")
	}
	if *extras || *all {
		selParts = append(selParts, "extras")
	}
	if *ablations || *all {
		selParts = append(selParts, "ablations")
	}
	selected := strings.Join(selParts, ",")

	o := experiments.Options{Seed: *seed, Short: *short, MaxAttempts: *attempts, Parallel: *parallel}
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hh-tables: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		// Buffered; closeTrace flushes on every exit path (os.Exit
		// skips defers, and fail() exits through os.Exit).
		o.Trace = hyperhammer.NewTrace(bufio.NewWriterSize(f, 1<<20), 0)
	} else if archive {
		// Cost profiling folds span events, so the artifact needs a
		// recorder even without a trace file.
		o.Trace = hyperhammer.NewTrace(nil, 0)
	}
	closeTrace := func() {
		if o.Trace == nil {
			return
		}
		if err := o.Trace.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "hh-tables: flushing trace:", err)
		}
		if n := o.Trace.EncodeErrors(); n > 0 {
			fmt.Fprintf(os.Stderr, "hh-tables: %d trace events lost to encode/flush errors\n", n)
		}
		if traceFile != nil {
			traceFile.Close()
		}
	}
	if *metricsPath != "" || *obsAddr != "" || archive {
		o.Metrics = hyperhammer.NewMetrics()
	}
	// The introspection plane rides along whenever the run is observed
	// live or archived; every unit gets a scoped inspector absorbed in
	// declaration order (see experiments/plan.go).
	if *obsAddr != "" || archive {
		o.Inspect = hyperhammer.NewInspector(hyperhammer.InspectConfig{})
	}
	// Same for the forensics plane: every unit records flip provenance
	// into a scoped recorder, absorbed in declaration order.
	if *obsAddr != "" || archive {
		o.Forensics = hyperhammer.NewForensics(hyperhammer.ForensicsConfig{})
	}
	// The determinism ledger is strictly opt-in (unlike the planes
	// above): leaving it off keeps archived baselines byte-identical
	// with pre-ledger builds. Every unit folds into a scoped recorder,
	// absorbed in declaration order, so the ledger is byte-identical at
	// any -parallel.
	if *ledgerEpoch > 0 {
		o.Ledger = hyperhammer.NewLedger(hyperhammer.LedgerConfig{Epoch: *ledgerEpoch})
	}
	var profiler *hyperhammer.CostProfiler
	if archive {
		// The profiler is NOT attached as a sink on the shared
		// recorder: every unit folds spans over its own scoped
		// recorder and the plan absorbs the per-unit profiles at
		// delivery. A shared sink would count the absorbed replays a
		// second time.
		profiler = hyperhammer.NewCostProfiler(o.Metrics)
	}
	// Progress lines carry the simulated clock of the most recently
	// booted host — each experiment restarts it.
	log := obs.NewLogger(os.Stderr, o.Metrics.SimTime, nil)
	flushMetrics := func() {
		if o.Metrics == nil || *metricsPath == "" {
			return
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hh-tables: %v\n", err)
			return
		}
		defer f.Close()
		if strings.HasSuffix(*metricsPath, ".json") {
			err = o.Metrics.WriteJSON(f)
		} else {
			err = o.Metrics.WriteProm(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hh-tables: %v\n", err)
		}
	}
	var srv *obs.Server
	if *obsAddr != "" {
		plane := hyperhammer.NewObs(o.Metrics, hyperhammer.ObsConfig{SampleEvery: *obsSample})
		plane.AttachProfile(profiler)
		plane.SetScope(o.Scope)
		o.Obs = plane
		// Units run hosts with Obs unset, so nothing ever taps the
		// shared recorder implicitly; tap it here so absorbed unit
		// events stream onto the live bus — then detach the profile
		// sink TapTrace installs, for the same double-count reason as
		// above.
		plane.TapTrace(o.Trace)
		o.Trace.SetNamedSink("profile", nil)
		var err error
		if srv, err = plane.Serve(*obsAddr); err != nil {
			fmt.Fprintf(os.Stderr, "hh-tables: %v\n", err)
			os.Exit(1)
		}
		log.Info("observability plane serving", "url", "http://"+srv.Addr()+"/")
	}
	// The shared plan is created here — after the whole telemetry plane
	// is wired into o — so the artifact builder, the /api/plan endpoint,
	// and the Chrome-trace exporter below can all source the host-cost
	// schedule from it. Experiments register their units further down.
	p := experiments.NewPlan(o)
	p.SetProfiler(profiler)
	o.Obs.SetPlanFunc(p.PlanReport)
	scale := "full"
	if *short {
		scale = "short"
	}
	buildArtifact := func() *hyperhammer.RunArtifact {
		a := hyperhammer.NewRunArtifact("hh-tables", *seed, scale)
		a.CreatedAt = time.Now().UTC().Format(time.RFC3339)
		a.Config["short"] = strconv.FormatBool(*short)
		a.Config["attempts"] = strconv.Itoa(*attempts)
		a.Config["parallel"] = strconv.Itoa(*parallel)
		// "selected" is the canonical experiment set (enters ConfigHash);
		// "selection" keeps the raw argv for humans and is excluded from
		// the hash as host-only (it drags output paths and -parallel in).
		a.Config["selected"] = selected
		a.Config["selection"] = strings.Join(os.Args[1:], " ")
		a.SimSeconds = o.Metrics.SimTime().Seconds()
		// StripHost keeps the artifact's metrics section byte-identical
		// at any -parallel: sched_* families are host observations and
		// live in the plan section instead.
		a.Metrics = o.Metrics.Snapshot().StripHost()
		a.SetProfile(profiler.Snapshot())
		a.SetInspector(o.Inspect)
		a.SetForensics(o.Forensics)
		a.SetLedger(o.Ledger)
		if o.Ledger != nil {
			a.Config["ledger-epoch"] = ledgerEpoch.String()
		}
		if p.Schedule() != nil {
			a.SetPlan(p.PlanReport())
		}
		return a
	}
	if archive {
		o.Obs.SetArtifactFunc(func() any { return buildArtifact() })
	}
	o.Obs.SetRunStore(store)
	writeArtifact := func() {
		if !archive {
			return
		}
		a := buildArtifact()
		if *artifactPath != "" {
			if err := a.WriteFile(*artifactPath); err != nil {
				fmt.Fprintln(os.Stderr, "hh-tables:", err)
			} else {
				log.Info("run artifact written", "path", *artifactPath)
			}
		}
		if store != nil {
			e, err := store.Ingest(a)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hh-tables:", err)
			} else {
				log.Info("run ingested into history store",
					"store", *storeDir, "run", e.RunID, "config", e.ConfigHash)
			}
			store.Close()
		}
	}
	writeChrome := func() {
		if *chromePath == "" {
			return
		}
		f, err := os.Create(*chromePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hh-tables:", err)
			return
		}
		if err := hyperhammer.WriteChromeTrace(f, p.Schedule()); err != nil {
			fmt.Fprintln(os.Stderr, "hh-tables:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hh-tables:", err)
			return
		}
		log.Info("chrome trace written", "path", *chromePath)
	}
	shutdown := func() {
		flushMetrics()
		writeArtifact()
		writeChrome()
		closeTrace()
		if srv != nil {
			if *obsHold > 0 {
				log.Info("holding observability server before exit", "hold", obsHold.String())
				time.Sleep(*obsHold)
			}
			srv.Close()
		}
	}
	// Every selected experiment registers its units on the shared plan
	// created above; the plan fans independent units across the worker
	// pool and folds results — values and telemetry alike — in
	// declaration order, so stdout, metrics, traces and the artifact
	// are identical at any -parallel setting. Printing happens after
	// Run, from the resolved futures, in the same order as the
	// sequential CLI.
	var prints []func()
	sel := func(what string, reg func()) {
		log.Info("queueing", "artifact", what)
		reg()
	}

	var t1f *experiments.Future[*experiments.Table1Result]
	if want(1) {
		sel("table 1", func() {
			f := p.Table1()
			t1f = f
			prints = append(prints, func() { fmt.Println(f.Get().Table()) })
		})
	}
	if want(2) {
		sel("table 2", func() {
			f := p.Table2()
			prints = append(prints, func() { fmt.Println(f.Get().Table()) })
		})
	}
	if want(3) {
		sel("table 3", func() {
			f := p.Table3()
			prints = append(prints, func() { fmt.Println(f.Get().Table()) })
		})
	}
	if *figure || *all {
		sel("figure 3", func() {
			f := p.Figure3()
			prints = append(prints, func() {
				fmt.Println(f.Get().Figure())
				fmt.Println("summary:")
				fmt.Println(f.Get().Figure().Summary())
			})
		})
	}
	if *analysis || *all {
		sel("analysis", func() {
			in := t1f
			if in == nil {
				in = experiments.Resolved[*experiments.Table1Result](nil)
			}
			f := p.Analysis(in)
			prints = append(prints, func() {
				fmt.Println(f.Get().Table())
				fmt.Println(experiments.VMSize(o).Table())
			})
		})
	}
	if *extras || *all {
		sel("extras", func() {
			dd := p.DRAMDig()
			mit := p.Mitigation()
			xen := p.Xen()
			bal := p.Balloon()
			trr := p.TRR()
			ecc := p.ECC()
			mh := p.Multihit()
			prints = append(prints, func() {
				fmt.Println(dd.Get().Table())
				fmt.Println(mit.Get().Table())
				fmt.Println(xen.Get().Table())
				fmt.Println(bal.Get().Table())
				fmt.Println(trr.Get().Table())
				fmt.Println(ecc.Get().Table())
				fmt.Println(mh.Get().Table())
			})
		})
	}
	if *ablations || *all {
		sel("ablations", func() {
			side := p.AblationSidedness()
			ex := p.AblationNoExhaust()
			spray := p.AblationSpraySize()
			thp := p.AblationTHP()
			pcp := p.AblationPCPNoise()
			prints = append(prints, func() {
				fmt.Println(side.Get().Table())
				fmt.Println(ex.Get().Table())
				fmt.Println(spray.Get().Table())
				fmt.Println(thp.Get().Table())
				fmt.Println(pcp.Get().Table())
			})
		})
	}
	if p.Units() == 0 {
		fmt.Fprintln(os.Stderr, "hh-tables: nothing selected; try -all or -table N")
		fmt.Fprintln(os.Stderr, strings.TrimSpace(`
flags: -table N (repeatable) -figure -analysis -extras -ablations -all -short -seed S -attempts N -parallel N -obs ADDR`))
		shutdown()
		os.Exit(2)
	}
	log.Info("running", "units", strconv.Itoa(p.Units()))
	if err := p.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "hh-tables: %v\n", err)
		shutdown()
		os.Exit(1)
	}
	for _, print := range prints {
		print()
	}
	shutdown()
}
