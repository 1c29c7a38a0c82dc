package main

// The output session shared by the two simulating subcommands, run and
// tables: their nine common flags, the observation scope and live plane
// they wire up, and the files they write at exit.

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"hyperhammer/internal/forensics"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/obs"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/report"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
	"hyperhammer/internal/sched"
	"hyperhammer/internal/scope"
	"hyperhammer/internal/trace"
)

// outputs are the parsed observation and output flags.
type outputs struct {
	trace, metrics, obs, artifact, store, chromeTrace string
	obsSample, obsHold, ledgerEpoch                   time.Duration
	// metricsTable is run's -metrics-table; tables has no such flag.
	metricsTable bool
}

// register defines the nine flags run and tables share.
func (o *outputs) register(fs *flag.FlagSet) {
	fs.StringVar(&o.trace, "trace", "", "write JSONL trace events from every booted host to this file")
	fs.StringVar(&o.metrics, "metrics", "", "write end-of-run metrics to this file (Prometheus text; .json suffix selects a JSON snapshot)")
	fs.StringVar(&o.obs, "obs", "", "serve the live observability plane on this address (status page, /metrics, /api/series, SSE events, pprof)")
	fs.DurationVar(&o.obsSample, "obs-sample", time.Second, "simulated-time interval between observability samples")
	fs.DurationVar(&o.obsHold, "obs-hold", 0, "keep the observability server up this long (wall clock) after the run ends")
	fs.StringVar(&o.artifact, "artifact", "", "write the self-describing run bundle (config, metrics, cost profile, outcome) to this file for hh diff")
	fs.StringVar(&o.store, "store", "", "ingest the run bundle into this run-history store directory (config-hash indexed; hh trend folds the stored history into cross-run trends)")
	fs.StringVar(&o.chromeTrace, "chrome-trace", "", "write the host-cost schedule as Chrome trace_event JSON to this file (load in Perfetto or chrome://tracing)")
	fs.DurationVar(&o.ledgerEpoch, "ledger-epoch", 0, "seal determinism-ledger fingerprint epochs at this simulated interval (0 disables the ledger entirely; hh bisect localizes divergence between two ledgered artifacts)")
}

// archive reports whether the run bundle is kept: -artifact and -store
// both archive it, so everything the bundle needs rides along whenever
// either is set.
func (o *outputs) archive() bool { return o.artifact != "" || o.store != "" }

// session is the output side of one simulating run: the scope its hosts
// feed, the cost profiler, the live plane and server, the history
// store, and the files close writes.
type session struct {
	out  outputs
	name string // the subcommand, prefixing every error line
	scope.Scope
	profiler  *profile.Builder
	plane     *obs.Plane
	srv       *obs.Server
	store     *runstore.Store
	log       *slog.Logger
	traceFile *os.File
	// build and schedule are the subcommand's run bundle and host-cost
	// schedule, installed by publish.
	build    func() *runartifact.Artifact
	schedule func() *sched.Schedule
}

// openSession wires the planes out asks for. Progress lines go to logTo,
// stamped with the simulated clock.
func openSession(name string, out outputs, logTo io.Writer) (*session, error) {
	s := &session{out: out, name: name}
	archive := out.archive()
	if out.store != "" {
		st, err := runstore.Open(out.store)
		if err != nil {
			return nil, err
		}
		if err := st.Repaired(); err != nil {
			fmt.Fprintf(os.Stderr, "hh %s: warning: %v\n", name, err)
		}
		s.store = st
	}
	if out.trace != "" {
		f, err := os.Create(out.trace)
		if err != nil {
			s.store.Close()
			return nil, err
		}
		s.traceFile = f
		// Buffered: a campaign emits hundreds of thousands of events.
		// close flushes on every exit path, and the buffered tail is
		// the part that explains a crash.
		s.Trace = trace.New(bufio.NewWriterSize(f, 1<<20), 0)
	} else if archive {
		// The artifact's cost profile folds span events, so profiling
		// needs a recorder even when no trace file was requested;
		// in-memory with no ring is nearly free.
		s.Trace = trace.New(nil, 0)
	}
	if out.metrics != "" || out.metricsTable || out.obs != "" || archive {
		s.Metrics = metrics.New()
	}
	// The introspection and forensics planes ride along whenever the
	// run is observed live or archived: the live endpoints and the
	// artifact sections come from the same recorders.
	if out.obs != "" || archive {
		s.Inspect = inspect.New()
		s.Forensics = forensics.New()
	}
	// The determinism ledger is strictly opt-in: it exists to detect
	// drift between deliberate runs, and leaving it off keeps archived
	// baselines byte-identical with pre-ledger builds.
	if out.ledgerEpoch > 0 {
		s.Ledger = ledger.New(ledger.Config{Epoch: out.ledgerEpoch})
	}
	if archive {
		s.profiler = profile.NewBuilder(s.Metrics)
	}
	s.log = obs.NewLogger(logTo, s.Metrics.SimTime, nil)
	if out.obs != "" {
		// The plane taps the recorder here, before any host boots, so
		// its bus carries every event the run records.
		s.plane = obs.NewPlane(s.Scope, obs.Config{SampleEvery: out.obsSample})
	}
	return s, nil
}

// publish installs the subcommand's run bundle and host-cost schedule,
// which close writes, and with -obs starts serving: the live endpoints
// read the published builders, the profiler and the store from their
// first request. schedule returns nil until the run has been scheduled.
// On a listen error publish releases the store and the trace file, and
// the subcommand exits without writing any output.
func (s *session) publish(build func() *runartifact.Artifact, schedule func() *sched.Schedule) error {
	s.build, s.schedule = build, schedule
	if s.plane == nil {
		return nil
	}
	src := obs.Sources{Profile: s.profiler, Schedule: schedule, Store: s.store}
	if s.out.archive() {
		src.Artifact = func() any { return build() }
	}
	srv, err := s.plane.Serve(s.out.obs, src)
	if err != nil {
		s.store.Close()
		if s.traceFile != nil {
			s.traceFile.Close()
		}
		return err
	}
	s.srv = srv
	s.log.Info("observability plane serving", "url", "http://"+srv.Addr()+"/")
	return nil
}

// newArtifact starts the run bundle with everything the session owns:
// the shared config, simulated time, metrics, cost profile, plane
// sections and host-cost plan. Tool is a lineage identity — it enters
// ConfigHash — not a binary name.
func (s *session) newArtifact(tool string, seed uint64, short bool) *runartifact.Artifact {
	scale := "full"
	if short {
		scale = "short"
	}
	a := runartifact.New(tool, seed, scale)
	a.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	a.Config["short"] = strconv.FormatBool(short)
	a.SimSeconds = s.Metrics.SimTime().Seconds()
	// Host telemetry (sched_*) is wall clock and would break the
	// byte-identical artifact guarantee; the plan section is the one
	// place host cost is allowed to live.
	a.Metrics = s.Metrics.Snapshot().StripHost()
	a.SetProfile(s.profiler.Snapshot())
	a.SetInspector(s.Inspect)
	a.SetForensics(s.Forensics)
	a.SetLedger(s.Ledger)
	if s.Ledger != nil {
		a.Config["ledger-epoch"] = s.out.ledgerEpoch.String()
	}
	if sc := s.schedule(); sc != nil {
		a.SetPlan(profile.BuildPlanReport(sc))
	}
	return a
}

// close writes every requested output in a fixed order — metrics, the
// artifact file, the store ingest, the Chrome trace, the trace flush —
// then holds and closes the obs server. Every output is attempted even
// when an earlier one fails; each failure is reported on stderr and
// all of them are returned joined.
func (s *session) close() error {
	var errs []error
	check := func(output string, err error) bool {
		if err != nil {
			err = fmt.Errorf("%s: %w", output, err)
			fmt.Fprintf(os.Stderr, "hh %s: %v\n", s.name, err)
			errs = append(errs, err)
		}
		return err == nil
	}
	if s.out.metricsTable {
		fmt.Println()
		fmt.Print(report.MetricsTable(s.Metrics.Snapshot()))
	}
	if path := s.out.metrics; path != "" {
		write := s.Metrics.WriteProm
		if strings.HasSuffix(path, ".json") {
			write = s.Metrics.WriteJSON
		}
		check("metrics", runartifact.WriteFileAtomic(path, write))
	}
	if s.out.archive() {
		a := s.build()
		if path := s.out.artifact; path != "" && check("artifact", a.WriteFile(path)) {
			s.log.Info("run artifact written", "path", path)
		}
		if s.store != nil {
			if e, err := s.store.Ingest(a); check("store", err) {
				s.log.Info("run ingested into history store",
					"store", s.out.store, "run", e.RunID, "config", e.ConfigHash)
			}
			check("store", s.store.Close())
		}
	}
	if path := s.out.chromeTrace; path != "" {
		write := func(w io.Writer) error { return trace.WriteChromeTrace(w, s.schedule()) }
		if check("chrome trace", runartifact.WriteFileAtomic(path, write)) {
			s.log.Info("chrome trace written", "path", path)
		}
	}
	if s.Trace != nil {
		check("trace", s.Trace.Flush())
		if n := s.Trace.EncodeErrors(); n > 0 {
			check("trace", fmt.Errorf("%d events lost to encode/flush errors", n))
		}
	}
	if s.traceFile != nil {
		check("trace", s.traceFile.Close())
	}
	if s.srv != nil {
		if s.out.obsHold > 0 {
			s.log.Info("holding observability server before exit", "hold", s.out.obsHold.String())
			time.Sleep(s.out.obsHold)
		}
		s.srv.Close()
	}
	return errors.Join(errs...)
}

// exit folds close's outcome into the subcommand's exit status: a
// failed output turns success into 1 and leaves a failure status as is.
func (s *session) exit(status int) int {
	if err := s.close(); err != nil && status == 0 {
		return 1
	}
	return status
}
