package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"hyperhammer"
	"hyperhammer/experiments"
	"hyperhammer/internal/report"
)

// parallel is the experiment engine's worker count in every workload.
// It is fixed rather than taken from the machine so that runs on
// different hosts load the same number of threads.
const parallel = 2

// workload is one family of benchmark inputs. Every workload drives
// the public entry points hh-tables uses: experiments.NewPlan, the
// plan's table registrars, Plan.Run, and (for observed) the run
// artifact, at full paper scale unless short is set.
type workload struct {
	name string
	// systems names the machines the workload boots; setup_s times
	// their boot.
	systems []string
	// build registers one pass of the workload for the pass seed; a
	// counted pass carries a metrics registry.
	build func(seed uint64, short, counted bool) *pass
	// goldenPasses is how many passes per golden seed the golden file
	// records: more than one run makes on the reference machine.
	goldenPasses int
}

// pass is one timed unit of work: a fresh plan, plus what to do inside
// the timed section after Plan.Run and how to read the results back.
type pass struct {
	plan *experiments.Plan
	// finish, when set, runs inside the timed section after Plan.Run.
	finish func() error
	// result returns the pass's rendered result rows, the rows that
	// break an invariant of the model, and the pass's op count.
	result func() (rows []string, bad []string, ops int)
	// metrics is the registry the pass reports into (nil when neither
	// counted nor observed).
	metrics *hyperhammer.MetricsRegistry
}

var workloads = []workload{
	{name: "table3", systems: []string{"S1", "S2"}, build: buildTable3, goldenPasses: 16},
	{name: "steer", systems: []string{"S1", "S2", "S3"}, build: buildSteer, goldenPasses: 16},
	{name: "profile", systems: []string{"S1", "S2"}, build: buildProfile, goldenPasses: 96},
	{name: "observed", systems: []string{"S1", "S2", "S3"}, build: buildObserved, goldenPasses: 8},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func options(seed uint64, short, counted bool) experiments.Options {
	o := experiments.Options{Seed: seed, Short: short, Parallel: parallel}
	if counted {
		// The registry supplies the exact work counts; attaching it is
		// observation and never changes a result.
		o.Metrics = hyperhammer.NewMetrics()
	}
	return o
}

// table3Attempts caps each Table-3 campaign. A pass stops at the cap or
// at the first verified escape, whichever comes first.
func table3Attempts(short bool) int {
	if short {
		return 2
	}
	return 8
}

func buildTable3(seed uint64, short, counted bool) *pass {
	o := options(seed, short, counted)
	o.MaxAttempts = table3Attempts(short)
	p := experiments.NewPlan(o)
	f := p.Table3()
	return &pass{plan: p, metrics: o.Metrics, result: func() ([]string, []string, int) {
		rows, bad := table3Rows(f.Get(), o.MaxAttempts)
		ops := 0
		for _, r := range f.Get().Rows {
			ops += r.Attempts
		}
		return rows, bad, ops
	}}
}

func buildSteer(seed uint64, short, counted bool) *pass {
	o := options(seed, short, counted)
	p := experiments.NewPlan(o)
	f := p.Table2()
	return &pass{plan: p, metrics: o.Metrics, result: func() ([]string, []string, int) {
		rows, bad := table2Rows(f.Get())
		return rows, bad, len(rows)
	}}
}

func buildProfile(seed uint64, short, counted bool) *pass {
	o := options(seed, short, counted)
	p := experiments.NewPlan(o)
	f := p.Table1()
	return &pass{plan: p, metrics: o.Metrics, result: func() ([]string, []string, int) {
		rows, bad := table1Rows(f.Get())
		return rows, bad, len(rows)
	}}
}

// ledgerEpoch is the determinism ledger's sealing interval in the
// observed workload, as in `hh-tables -ledger-epoch 250ms`.
const ledgerEpoch = 250 * time.Millisecond

// observedAttempts caps Table 3 inside the observed matrix.
func observedAttempts(short bool) int {
	if short {
		return 1
	}
	return 10
}

// buildObserved wires every observation plane the way
// `hh-tables -short -all -artifact PATH -ledger-epoch 250ms` does,
// registers the whole matrix, and encodes the run artifact inside the
// timed section. The trace recorder has no writer and the artifact goes
// to io.Discard, so the pass measures observation, not disk. This is
// the one workload at short scale: the full-scale matrix with every
// plane on takes 24 s a pass on a 2-core host, too long to repeat
// within a run.
func buildObserved(seed uint64, short, _ bool) *pass {
	o := options(seed, true, false)
	o.MaxAttempts = observedAttempts(short)
	o.Trace = hyperhammer.NewTrace(nil, 0)
	o.Metrics = hyperhammer.NewMetrics()
	o.Inspect = hyperhammer.NewInspector(hyperhammer.InspectConfig{})
	o.Forensics = hyperhammer.NewForensics(hyperhammer.ForensicsConfig{})
	o.Ledger = hyperhammer.NewLedger(hyperhammer.LedgerConfig{Epoch: ledgerEpoch})
	profiler := hyperhammer.NewCostProfiler(o.Metrics)
	p := experiments.NewPlan(o)
	p.SetProfiler(profiler)

	t1 := p.Table1()
	t2 := p.Table2()
	t3 := p.Table3()
	fig := p.Figure3()
	an := p.Analysis(t1)
	var others []func() fmt.Stringer
	if !short {
		// The extras and ablations are a third of a pass; the smoke
		// test leaves them out to stay quick.
		others = []func() fmt.Stringer{
			futureTable(p.DRAMDig()), futureTable(p.Mitigation()), futureTable(p.Xen()),
			futureTable(p.Balloon()), futureTable(p.TRR()), futureTable(p.ECC()),
			futureTable(p.Multihit()), futureTable(p.AblationSidedness()),
			futureTable(p.AblationNoExhaust()), futureTable(p.AblationSpraySize()),
			futureTable(p.AblationTHP()), futureTable(p.AblationPCPNoise()),
		}
	}

	var art *hyperhammer.RunArtifact
	finish := func() error {
		a := hyperhammer.NewRunArtifact("hh-tables", seed, "short")
		a.Config["short"] = "true"
		a.Config["attempts"] = strconv.Itoa(o.MaxAttempts)
		a.Config["parallel"] = strconv.Itoa(parallel)
		a.Config["selected"] = "table1,table2,table3,figure3,analysis,extras,ablations"
		a.Config["ledger-epoch"] = ledgerEpoch.String()
		a.SimSeconds = o.Metrics.SimTime().Seconds()
		a.Metrics = o.Metrics.Snapshot().StripHost()
		a.SetProfile(profiler.Snapshot())
		a.SetInspector(o.Inspect)
		a.SetForensics(o.Forensics)
		a.SetLedger(o.Ledger)
		a.SetPlan(p.PlanReport())
		art = a
		return a.Write(io.Discard)
	}
	return &pass{plan: p, finish: finish, metrics: o.Metrics, result: func() ([]string, []string, int) {
		r1, b1 := table1Rows(t1.Get())
		r2, b2 := table2Rows(t2.Get())
		r3, b3 := table3Rows(t3.Get(), o.MaxAttempts)
		rows := append(append(r1, r2...), r3...)
		bad := append(append(b1, b2...), b3...)
		rows = append(rows, fig.Get().Figure().String(), an.Get().Table().String())
		for _, t := range others {
			rows = append(rows, t().String())
		}
		rows = append(rows, "content "+art.ContentHash())
		fps := art.Fingerprints()
		for _, k := range sortedKeys(fps) {
			rows = append(rows, fmt.Sprintf("fingerprint %s %v", k, fps[k]))
		}
		return rows, bad, p.Units()
	}}
}

func futureTable[T interface{ Table() *report.Table }](f *experiments.Future[T]) func() fmt.Stringer {
	return func() fmt.Stringer { return f.Get().Table() }
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The row checks below hold for every seed: they are properties of the
// model, not recorded values, so they check runs at seeds the golden
// file does not cover.

func table1Rows(r *experiments.Table1Result) (rows, bad []string) {
	for _, row := range r.Rows {
		s := fmt.Sprintf("%+v", row)
		rows = append(rows, s)
		if row.Total != row.OneToZero+row.ZeroToOne || row.Stable > row.Total ||
			row.Exploitable > row.Total || row.Time <= 0 || row.HammerOps <= 0 {
			bad = append(bad, s)
		}
	}
	return rows, bad
}

func table2Rows(r *experiments.Table2Result) (rows, bad []string) {
	for _, row := range r.Rows {
		s := fmt.Sprintf("%+v", row)
		rows = append(rows, s)
		if row.Released != row.Blocks*512 || row.Reused > row.Released ||
			row.Reused > row.EPTPages || row.EPTPages <= 0 {
			bad = append(bad, s)
		}
	}
	return rows, bad
}

func table3Rows(r *experiments.Table3Result, maxAttempts int) (rows, bad []string) {
	for _, row := range r.Rows {
		s := fmt.Sprintf("%+v", row)
		rows = append(rows, s)
		escaped := row.AttemptsToFirstSuccess > 0
		// Campaigns stop at the first verified escape, so an escape is
		// always the last attempt run.
		if row.Attempts < 1 || row.Attempts > maxAttempts || row.AvgAttempt <= 0 ||
			escaped != (row.TimeToFirstSuccess > 0) ||
			(escaped && row.AttemptsToFirstSuccess != row.Attempts) {
			bad = append(bad, s)
		}
	}
	return rows, bad
}
