package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"hyperhammer"
)

// passSeed derives the seed of the i-th pass of a run. A run's inputs
// are a prefix of this sequence: the same run seed always gives the
// same passes, and different run seeds give disjoint ones.
func passSeed(runSeed uint64, i int) uint64 { return runSeed*1000 + uint64(i) }

// passRecord is one measured pass.
type passRecord struct {
	seed uint64
	// start..end is the timed section; runEnd is where Plan.Run returned
	// and the finishing step (if any) began.
	start, runEnd, end            time.Time
	wall, cpu, peakRSS            float64
	allocBytes, mallocs, gcCycles float64
	ops                           int
	rows, bad                     []string
	units                         int
	err                           error
	schedule                      *hyperhammer.HostSchedule
	counts                        map[string]float64
	profile                       []byte
}

// passKind says what a traced run attaches to a pass.
type passKind int

const (
	// warmup carries a metrics registry for the exact work counts, so
	// the registry's own cost stays out of the timed passes.
	warmup passKind = iota
	// timed records a CPU profile of exactly its timed section.
	timed
)

// runPass builds and runs one pass. It starts from a collected heap and
// records the pass's peak resident set.
func runPass(w workload, seed uint64, short, traced bool, kind passKind) passRecord {
	runtime.GC()
	resetPeakRSS()
	ps := w.build(seed, short, traced && kind == warmup)
	profiled := traced && kind == timed
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return passRecord{seed: seed, units: ps.plan.Units(), err: fmt.Errorf("cpu profile: %w", err)}
		}
	}
	before := sampleHost()
	err := ps.plan.Run()
	runEnd := time.Now()
	if err == nil && ps.finish != nil {
		err = ps.finish()
	}
	after := sampleHost()
	if profiled {
		pprof.StopCPUProfile()
	}
	rec := passRecord{
		seed:       seed,
		start:      before.at,
		runEnd:     runEnd,
		end:        after.at,
		wall:       after.at.Sub(before.at).Seconds(),
		cpu:        after.cpu - before.cpu,
		allocBytes: float64(after.allocBytes - before.allocBytes),
		mallocs:    float64(after.allocObjs - before.allocObjs),
		gcCycles:   float64(after.gcCycles - before.gcCycles),
		units:      ps.plan.Units(),
		err:        err,
		schedule:   ps.plan.Schedule(),
		profile:    prof.Bytes(),
		peakRSS:    peakRSSMB(),
	}
	if err != nil {
		return rec
	}
	rec.rows, rec.bad, rec.ops = ps.result()
	if ps.metrics != nil {
		rec.counts = counterTotals(ps.metrics)
	}
	return rec
}

// addPassSpans records a pass and, under it, Plan.Run with one child
// per started unit, then the finishing step when there is one.
func (tl *timeline) addPassSpans(name string, start, end time.Time, rec passRecord) {
	id := tl.add(0, name, start, end)
	run := tl.add(id, "plan.run", rec.start, rec.runEnd)
	if rec.schedule != nil {
		for _, u := range rec.schedule.Units {
			if u.Started {
				tl.add(run, u.Name, rec.start.Add(seconds(u.StartSeconds)), rec.start.Add(seconds(u.EndSeconds)))
			}
		}
	}
	if rec.end.After(rec.runEnd) {
		tl.add(id, "artifact.encode", rec.runEnd, rec.end)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// counterTotals sums every counter family of a registry over its
// label sets.
func counterTotals(reg *hyperhammer.MetricsRegistry) map[string]float64 {
	out := map[string]float64{}
	for _, c := range reg.Snapshot().Counters {
		out[c.Name] += c.Value
	}
	return out
}

// runConfig is one invocation of the benchmark on one workload.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	short   bool
	// out receives the traced outputs.
	out    string
	golden goldenFile
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run times the workload's set-up, runs one untimed warm-up pass, then
// starts passes until cfg.seconds have passed, and reports
// the end-to-end metrics (untraced) or the per-layer ones (traced).
func run(cfg runConfig) (*result, error) {
	tl := newTimeline()
	setup, err := timeSetup(cfg.w.systems, cfg.seed, setupBoots(cfg.short), tl)
	if err != nil {
		return nil, err
	}

	warmStart := time.Now()
	warm := runPass(cfg.w, passSeed(cfg.seed, 0), cfg.short, cfg.traced, warmup)
	tl.addPassSpans("warmup", warmStart, time.Now(), warm)

	var recs []passRecord
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		passStart := time.Now()
		rec := runPass(cfg.w, passSeed(cfg.seed, i), cfg.short, cfg.traced, timed)
		tl.addPassSpans(fmt.Sprintf("pass %d", i), passStart, time.Now(), rec)
		fmt.Fprintf(os.Stderr, "hhbench: %s pass %d seed %d: wall %.3fs cpu %.3fs ops %d rows %s\n",
			cfg.w.name, i, rec.seed, rec.wall, rec.cpu, rec.ops, rowDigest(strings.Join(rowDigests(rec.rows), "")))
		recs = append(recs, rec)
	}

	res := &result{}
	check := func(rec passRecord, want []string) {
		a, f := checkPass(rec, want, cfg.golden, cfg.w.name)
		res.Attempted += a
		res.Failed += f
	}
	check(warm, nil)
	for i, rec := range recs {
		var want []string
		if i == 0 && warm.err == nil {
			// The same seed must give the same rows. In a traced run the
			// warm-up carried a registry and this pass did not, so this is
			// also the check that observation never perturbs a result.
			want = rowDigests(warm.rows)
		}
		check(rec, want)
	}
	res.Correct = res.Failed == 0

	if cfg.traced {
		m, err := layerMetrics(cfg, warm, recs, tl)
		if err != nil {
			return nil, err
		}
		res.Metrics = m
	} else {
		res.Metrics = endToEndMetrics(recs, setup)
	}
	return res, nil
}

// checkPass counts a pass's result rows and the ones that failed: an
// error, a broken model invariant, or a digest that differs from the
// golden file or from want.
func checkPass(rec passRecord, want []string, golden goldenFile, workload string) (attempted, failed int) {
	if rec.err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: pass seed %d: %v\n", rec.seed, rec.err)
		return rec.units, rec.units
	}
	got := rowDigests(rec.rows)
	bad := map[int]bool{}
	for i, r := range rec.rows {
		for _, b := range rec.bad {
			if r == b {
				bad[i] = true
			}
		}
	}
	compare := func(ref []string, what string) {
		for i := range got {
			if i >= len(ref) || got[i] != ref[i] {
				if !bad[i] {
					fmt.Fprintf(os.Stderr, "hhbench: pass seed %d row %d differs from %s\n", rec.seed, i, what)
				}
				bad[i] = true
			}
		}
	}
	if ref, ok := golden.lookup(workload, rec.seed); ok {
		compare(ref, "golden")
	}
	if want != nil {
		compare(want, "the warm-up pass")
	}
	for _, b := range rec.bad {
		fmt.Fprintf(os.Stderr, "hhbench: pass seed %d breaks a model invariant: %s\n", rec.seed, b)
	}
	return len(rec.rows), len(bad)
}

// setupBoots is how many times each system is booted to time set-up.
func setupBoots(short bool) int {
	if short {
		return 1
	}
	return 15
}

// timeSetup boots each system n times, each from a heap returned to the
// operating system as a fresh process's is, and returns the sum over
// systems of the median boot time.
func timeSetup(systems []string, seed uint64, n int, tl *timeline) (float64, error) {
	type boot struct {
		name       string
		start, end time.Time
	}
	var boots []boot
	total := 0.0
	for _, sys := range systems {
		var ts []float64
		for i := 0; i < n; i++ {
			debug.FreeOSMemory()
			start := time.Now()
			if err := bootSystem(sys, seed); err != nil {
				return 0, fmt.Errorf("boot %s: %w", sys, err)
			}
			end := time.Now()
			boots = append(boots, boot{"boot." + sys, start, end})
			ts = append(ts, end.Sub(start).Seconds())
		}
		total += median(ts)
	}
	id := tl.add(0, "setup", boots[0].start, boots[len(boots)-1].end)
	for _, b := range boots {
		tl.add(id, b.name, b.start, b.end)
	}
	return total, nil
}

func bootSystem(sys string, seed uint64) error {
	switch sys {
	case "S1":
		_, err := hyperhammer.NewHost(hyperhammer.S1(seed))
		return err
	case "S2":
		_, err := hyperhammer.NewHost(hyperhammer.S2(seed))
		return err
	case "S3":
		cfg, load := hyperhammer.S3(seed)
		h, err := hyperhammer.NewHost(cfg)
		if err != nil {
			return err
		}
		_, err = hyperhammer.AttachWorkload(h, load, seed)
		return err
	}
	return fmt.Errorf("unknown system %q", sys)
}

// endToEndMetrics folds the timed passes into the end-to-end metrics;
// set-up time is measured apart.
func endToEndMetrics(recs []passRecord, setup float64) map[string]metric {
	var rss, allocs []float64
	for _, r := range recs {
		rss = append(rss, r.peakRSS)
		allocs = append(allocs, r.allocBytes/(1<<20))
	}
	wall, cpuPerOp, opsPerS := fastest(recs)
	return map[string]metric{
		"wall_s":        {wall, "s"},
		"cpu_ms_per_op": {1e3 * cpuPerOp, "ms"},
		"ops_per_s":     {opsPerS, "1/s"},
		"setup_s":       {setup, "s"},
		"peak_rss_mb":   {median(rss), "MB"},
		"alloc_mb":      {median(allocs), "MB"},
	}
}

// fastest returns the best of the passes' host times: the shortest
// wall time, the least CPU per op and the most ops per wall second.
// Other work on a shared host only ever slows a pass down, so the
// fastest pass is the steadiest estimate of what the code costs; a
// per-op figure also discounts Table-3 passes cut short by an escape.
func fastest(recs []passRecord) (wall, cpuPerOp, opsPerS float64) {
	wall, cpuPerOp = math.Inf(1), math.Inf(1)
	for _, r := range recs {
		if r.err != nil || r.ops == 0 {
			continue
		}
		wall = math.Min(wall, r.wall)
		cpuPerOp = math.Min(cpuPerOp, r.cpu/float64(r.ops))
		opsPerS = math.Max(opsPerS, float64(r.ops)/r.wall)
	}
	if opsPerS == 0 {
		return 0, 0, 0
	}
	return wall, cpuPerOp, opsPerS
}
