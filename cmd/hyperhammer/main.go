// Command hyperhammer runs the end-to-end attack: boot a simulated
// KVM host, plant a secret in host-kernel memory that no guest can
// reach, then let a malicious tenant VM profile its memory, steer EPT
// pages onto Rowhammer-vulnerable frames, flip them, and read the
// secret through the stolen translation.
//
// Usage:
//
//	hyperhammer                    # full-scale campaign (minutes)
//	hyperhammer -short             # 4 GiB scale (seconds)
//	hyperhammer -attempts N        # attempt budget
//	hyperhammer -obs 127.0.0.1:0   # live status page + /metrics + SSE
//	hyperhammer -artifact run.json # write the run bundle for hh-diff
//	hyperhammer -store store       # ingest the run into the history store (hh-trend)
//	hyperhammer -chrome-trace t.json # host-cost schedule for Perfetto
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hyperhammer"
	"hyperhammer/internal/obs"
	"hyperhammer/internal/report"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/sched"
)

func main() {
	short := flag.Bool("short", false, "run the reduced 4 GiB scale")
	seed := flag.Uint64("seed", 0, "simulation seed (0 = scale default)")
	attempts := flag.Int("attempts", 0, "attempt budget (0 = scale default)")
	tracePath := flag.String("trace", "", "write host-side JSONL trace events to this file")
	metricsPath := flag.String("metrics", "", "write end-of-run metrics to this file (Prometheus text; .json suffix selects a JSON snapshot)")
	metricsTable := flag.Bool("metrics-table", false, "print the metrics as a human-readable table at exit")
	obsAddr := flag.String("obs", "", "serve the live observability plane on this address (status page, /metrics, /api/series, SSE events, pprof)")
	obsSample := flag.Duration("obs-sample", time.Second, "simulated-time interval between observability samples")
	obsHold := flag.Duration("obs-hold", 0, "keep the observability server up this long (wall clock) after the campaign ends")
	artifactPath := flag.String("artifact", "", "write the self-describing run bundle (config, metrics, cost profile, outcome) to this file for hh-diff")
	storeDir := flag.String("store", "", "ingest the run bundle into this run-history store directory (config-hash indexed; hh-trend folds the stored history into cross-run trends)")
	hammerRounds := flag.Int("hammer-rounds", 0, "activation budget per hammer pattern (0 = attack default)")
	parallel := flag.Int("parallel", 1, "accepted for CLI symmetry with hh-tables and recorded in the artifact; the single campaign is one serial unit, so it does not change execution")
	chromeTrace := flag.String("chrome-trace", "", "write the host-cost schedule as Chrome trace_event JSON to this file (load in Perfetto or chrome://tracing)")
	ledgerEpoch := flag.Duration("ledger-epoch", 0, "seal determinism-ledger fingerprint epochs at this simulated interval (0 disables the ledger entirely; hh-bisect localizes divergence between two ledgered artifacts)")
	flag.Parse()

	// -artifact and -store both archive the run bundle (to a file, to
	// the history store, or both), so everything the bundle needs rides
	// along whenever either is set.
	archive := *artifactPath != "" || *storeDir != ""
	var store *hyperhammer.RunStore
	if *storeDir != "" {
		var err error
		if store, err = hyperhammer.OpenRunStore(*storeDir); err != nil {
			fatal(err)
		}
		if err := store.Repaired(); err != nil {
			fmt.Fprintln(os.Stderr, "hyperhammer: warning:", err)
		}
	}

	if *seed == 0 {
		// Known-good defaults per scale; the attack is a geometric
		// draw at the Section 5.3.1 bound, so arbitrary seeds may
		// need more attempts than the default budget.
		*seed = 1
		if *short {
			*seed = 4
		}
	}

	hostCfg := hyperhammer.S1(*seed)
	vmCfg := hyperhammer.VMConfig{MemSize: 13 * hyperhammer.GiB, VFIOGroups: 1, BootSplits: 500}
	attackCfg := hyperhammer.DefaultAttackConfig(hyperhammer.S1BankFunction())
	budget := 600
	if *short {
		hostCfg.Geometry = shortGeometry()
		hostCfg.Fault = hyperhammer.FaultModel{
			Seed: *seed, CellsPerRow: 0.02,
			ThresholdMin: 120_000, ThresholdMax: 400_000,
			StableFraction: 0.54, FlakyP: 0.35,
			NeighborWeight1: 1.0, NeighborWeight2: 0.25,
		}
		hostCfg.BootNoisePages = 2000
		vmCfg.MemSize = 3584 * hyperhammer.MiB
		vmCfg.BootSplits = 150
		attackCfg.HostMemBits = 32
		attackCfg.IOVAMappings = 6000
		attackCfg.TargetBits = 3
		budget = 250
	}
	if *attempts > 0 {
		budget = *attempts
	}
	if *hammerRounds > 0 {
		attackCfg.HammerRounds = *hammerRounds
	}

	var rec *hyperhammer.TraceRecorder
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		// Buffered: a campaign emits hundreds of thousands of events.
		// closeTrace flushes on every exit path — os.Exit skips defers,
		// and the buffered tail is the part that explains a crash.
		rec = hyperhammer.NewTrace(bufio.NewWriterSize(f, 1<<20), 0)
		hostCfg.Trace = rec
	} else if archive {
		// The artifact's cost profile folds span events, so profiling
		// needs a recorder even when no trace file was requested;
		// in-memory with no ring is nearly free.
		rec = hyperhammer.NewTrace(nil, 0)
		hostCfg.Trace = rec
	}
	closeTrace := func() {
		if rec == nil {
			return
		}
		if err := rec.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "hyperhammer: flushing trace:", err)
		}
		if n := rec.EncodeErrors(); n > 0 {
			fmt.Fprintf(os.Stderr, "hyperhammer: %d trace events lost to encode/flush errors\n", n)
		}
		if traceFile != nil {
			traceFile.Close()
		}
	}

	var reg *hyperhammer.MetricsRegistry
	if *metricsPath != "" || *metricsTable || *obsAddr != "" || archive {
		reg = hyperhammer.NewMetrics()
		hostCfg.Metrics = reg
	}

	// The introspection plane rides along whenever the run is observed
	// live or archived: heatmap/census/alert endpoints and artifact
	// sections come from the same inspector.
	var inspector *hyperhammer.Inspector
	if *obsAddr != "" || archive {
		inspector = hyperhammer.NewInspector(hyperhammer.InspectConfig{})
		hostCfg.Inspect = inspector
	}

	// The forensics plane likewise rides along on observed or archived
	// runs: /api/forensics and the artifact's forensics section (what
	// hh-why explains) come from the same recorder.
	var forensicsRec *hyperhammer.ForensicsRecorder
	if *obsAddr != "" || archive {
		forensicsRec = hyperhammer.NewForensics(hyperhammer.ForensicsConfig{})
		hostCfg.Forensics = forensicsRec
	}

	// The determinism ledger is strictly opt-in: unlike the planes
	// above it exists to detect drift between deliberate runs, and
	// leaving it off keeps archived baselines byte-identical with
	// pre-ledger builds.
	var ledgerRec *hyperhammer.LedgerRecorder
	if *ledgerEpoch > 0 {
		ledgerRec = hyperhammer.NewLedger(hyperhammer.LedgerConfig{Epoch: *ledgerEpoch})
		hostCfg.Ledger = ledgerRec
	}

	var profiler *hyperhammer.CostProfiler
	if archive {
		profiler = hyperhammer.NewCostProfiler(reg)
		rec.SetNamedSink("profile", profiler.Consume)
	}
	// Every progress line is stamped with the simulated clock, the
	// time base of every duration the campaign reports.
	log := obs.NewLogger(os.Stdout, reg.SimTime, nil)

	var srv *obs.Server
	var plane *hyperhammer.ObsPlane
	if *obsAddr != "" {
		plane = hyperhammer.NewObs(reg, hyperhammer.ObsConfig{SampleEvery: *obsSample})
		plane.AttachProfile(profiler) // nil profiler → /api/profile serves empty
		plane.SetScope(hostCfg.Scope)
		hostCfg.Obs = plane
		var err error
		if srv, err = plane.Serve(*obsAddr); err != nil {
			fatal(err)
		}
		log.Info("observability plane serving", "url", "http://"+srv.Addr()+"/")
	}
	closeObs := func() {
		if srv == nil {
			return
		}
		if *obsHold > 0 {
			log.Info("holding observability server before exit", "hold", obsHold.String())
			time.Sleep(*obsHold)
		}
		srv.Close()
	}
	// Called explicitly before every exit path: os.Exit skips defers.
	exportMetrics := func() {
		if reg == nil {
			return
		}
		if *metricsTable {
			fmt.Println()
			fmt.Print(report.MetricsTable(reg.Snapshot()))
		}
		if *metricsPath == "" {
			return
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if strings.HasSuffix(*metricsPath, ".json") {
			err = reg.WriteJSON(f)
		} else {
			err = reg.WriteProm(f)
		}
		if err != nil {
			fatal(err)
		}
	}
	// The artifact bundles everything hh-diff compares. campaignRes is
	// filled in after the campaign; building before that (the live
	// /api/artifact endpoint, or a crash path) yields a bundle without
	// outcome rows, which hh-diff treats as figures missing on one side.
	var campaignRes *hyperhammer.CampaignResult
	// The host-cost schedule of the single campaign unit, stamped by
	// the timed scheduler. Stored atomically because the live /api/plan
	// and /api/artifact handlers read it from server goroutines while
	// the campaign is still running (Load() == nil until it finishes).
	var hostSched atomic.Pointer[hyperhammer.HostSchedule]
	scale := "full"
	if *short {
		scale = "short"
	}
	buildArtifact := func() *hyperhammer.RunArtifact {
		a := hyperhammer.NewRunArtifact("hyperhammer", *seed, scale)
		a.CreatedAt = time.Now().UTC().Format(time.RFC3339)
		a.Config["short"] = strconv.FormatBool(*short)
		a.Config["attempts"] = strconv.Itoa(budget)
		a.Config["hammer-rounds"] = strconv.Itoa(attackCfg.HammerRounds)
		a.Config["parallel"] = strconv.Itoa(*parallel)
		a.Config["geometry"] = hostCfg.Geometry.Name
		a.SimSeconds = reg.SimTime().Seconds()
		// Host telemetry (sched_*) is wall-clock and would break the
		// byte-identical artifact guarantee; the plan section is the
		// one place host cost is allowed to live.
		a.Metrics = reg.Snapshot().StripHost()
		a.SetProfile(profiler.Snapshot())
		a.SetInspector(inspector)
		a.SetForensics(forensicsRec)
		a.SetLedger(ledgerRec)
		if ledgerRec != nil {
			a.Config["ledger-epoch"] = ledgerEpoch.String()
		}
		if sc := hostSched.Load(); sc != nil {
			a.SetPlan(hyperhammer.BuildPlanReport(sc))
		}
		if res := campaignRes; res != nil {
			a.Outcome["attempts"] = float64(len(res.Attempts))
			a.Outcome["successes"] = float64(res.Successes)
			a.Outcome["first_success_attempt"] = float64(res.FirstSuccessAttempt)
			a.Outcome["profiled_bits"] = float64(res.ProfiledBits)
			a.Outcome["profile_seconds"] = res.ProfileDuration.Seconds()
			a.Outcome["steer_seconds"] = res.SteerTime.Seconds()
			a.Outcome["exploit_seconds"] = res.ExploitTime.Seconds()
			a.Outcome["reboot_seconds"] = res.RebootTime.Seconds()
			a.Outcome["setup_seconds"] = res.SetupTime.Seconds()
			a.Outcome["total_seconds"] = res.TotalDuration.Seconds()
		}
		// A compact extract of the headline series, when the plane
		// sampled any (hh-diff compares endpoints; the curves are for
		// humans and plots).
		for _, name := range []string{"dram_activations_total", "hammer_rounds_total"} {
			for _, sd := range plane.Store().Series(name) {
				s := runartifact.Series{Name: sd.Name, Labels: sd.Labels, Kind: sd.Kind}
				for _, pt := range sd.Points {
					s.Points = append(s.Points, runartifact.SeriesPoint{T: pt.SimSeconds, V: pt.Value})
				}
				a.Series = append(a.Series, s)
			}
		}
		return a
	}
	if archive {
		plane.SetArtifactFunc(func() any { return buildArtifact() })
	}
	plane.SetRunStore(store)
	// /api/plan serves the host-cost analysis live; until the campaign
	// finishes it reports an empty schedule rather than erroring.
	plane.SetPlanFunc(func() *hyperhammer.PlanReport {
		return hyperhammer.BuildPlanReport(hostSched.Load())
	})
	writeArtifact := func() {
		if !archive {
			return
		}
		a := buildArtifact()
		if *artifactPath != "" {
			if err := a.WriteFile(*artifactPath); err != nil {
				fmt.Fprintln(os.Stderr, "hyperhammer:", err)
			} else {
				log.Info("run artifact written", "path", *artifactPath)
			}
		}
		if store != nil {
			e, err := store.Ingest(a)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hyperhammer:", err)
			} else {
				log.Info("run ingested into history store",
					"store", *storeDir, "run", e.RunID, "config", e.ConfigHash)
			}
			store.Close()
		}
	}
	writeChrome := func() {
		if *chromeTrace == "" {
			return
		}
		f, err := os.Create(*chromeTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyperhammer:", err)
			return
		}
		err = hyperhammer.WriteChromeTrace(f, hostSched.Load())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyperhammer:", err)
			return
		}
		log.Info("chrome trace written", "path", *chromeTrace)
	}
	shutdown := func() {
		// The campaign (or the error path) is done and the simulating
		// goroutine is idle, so a final census/watchpoint pass reflects
		// the end state rather than the last sample tick.
		inspector.Finalize(reg.SimTime())
		exportMetrics()
		writeArtifact()
		writeChrome()
		closeTrace()
		closeObs()
	}

	host, err := hyperhammer.NewHost(hostCfg)
	if err != nil {
		fatal(err)
	}
	const secretValue = 0xC0FFEE_5EC2E7
	secretHPA := host.PlantSecret(secretValue)
	log.Info("host booted",
		"geometry", hostCfg.Geometry.Name,
		"memMiB", hostCfg.Geometry.Size/hyperhammer.MiB,
		"thp", true, "nxHugepages", true, "qemu", "stock")
	log.Info("secret planted in host kernel memory",
		"hpa", fmt.Sprintf("%#x", uint64(secretHPA)))
	log.Info("attacker VM configured",
		"memMiB", vmCfg.MemSize/hyperhammer.MiB, "vfioGroups", 1, "viommu", true)

	// The single campaign runs as a one-unit batch through the same
	// timed scheduler hh-tables uses: with one unit the pool clamps to
	// one worker and takes the sequential fast path, so execution is
	// identical to a direct call — but the run lands in the host-cost
	// plane (/api/plan, the artifact's plan section, -chrome-trace).
	sc, err := sched.New(*parallel).RunTimed([]sched.Unit{{
		Name: "campaign",
		Run: func() (any, error) {
			return hyperhammer.RunCampaign(host, hyperhammer.CampaignConfig{
				Attack:             attackCfg,
				VM:                 vmCfg,
				MaxAttempts:        budget,
				StopAtFirstSuccess: true,
				VerifyHPA:          secretHPA,
				VerifyValue:        secretValue,
				ChurnOps:           400,
			})
		},
	}}, func(_ int, v any) error {
		campaignRes = v.(*hyperhammer.CampaignResult)
		return nil
	})
	hostSched.Store(sc)
	if err != nil {
		shutdown()
		fatal(err)
	}
	res := campaignRes
	log.Info("profiling finished",
		"exploitableBits", res.ProfiledBits,
		"simulated", res.ProfileDuration.String())
	log.Info("attempts finished",
		"run", len(res.Attempts),
		"avgSimulated", res.AvgAttemptTime().String())
	log.Info("phase breakdown",
		"profile", report.FormatDuration(res.ProfileDuration),
		"steer", report.FormatDuration(res.SteerTime),
		"exploit", report.FormatDuration(res.ExploitTime),
		"reboot", report.FormatDuration(res.RebootTime),
		"setup", report.FormatDuration(res.SetupTime))
	if res.Successes == 0 {
		fmt.Printf("\nno escape within %d attempts (expected ~%.0f at the Section 5.3.1 bound); retry with more -attempts or another -seed\n",
			budget, hyperhammer.ExpectedAttempts(uint64(vmCfg.MemSize), hostCfg.Geometry.Size))
		shutdown()
		os.Exit(1)
	}
	fmt.Printf("\nESCAPE at attempt %d after %v simulated attack time\n",
		res.FirstSuccessAttempt, res.TimeToFirstSuccess)
	fmt.Printf("the guest read the host-kernel secret %#x through a stolen EPT page:\n", uint64(secretValue))
	fmt.Println("KVM-enforced isolation broken.")
	shutdown()
}

func shortGeometry() *hyperhammer.Geometry {
	g, err := hyperhammer.NewGeometry(hyperhammer.Geometry{
		Name:      "short-4G (i3-10100 bank function)",
		Size:      4 * hyperhammer.GiB,
		BankMasks: hyperhammer.S1BankFunction(),
		RowShift:  18,
		RowBits:   14,
	})
	if err != nil {
		fatal(err)
	}
	return g
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hyperhammer:", err)
	os.Exit(1)
}
