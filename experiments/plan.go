package experiments

import (
	"sync"

	"hyperhammer/internal/metrics"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/sched"
	"hyperhammer/internal/scope"
)

// This file is the deterministic parallel experiment engine. A Plan
// accumulates the independent units the selected experiments decompose
// into — one booted host per unit, seeds derived only from
// Options.Seed — and runs them on internal/sched's bounded worker
// pool. Determinism does not depend on the worker count:
//
//   - Each unit runs against scoped telemetry (its own capture
//     recorder, registry, and profile builder), so concurrent hosts
//     never share a clock binding or cross-charge simulated time.
//
//   - Completed units are folded into the shared telemetry and into
//     their experiment's result in declaration order, not completion
//     order (sched delivers index-ordered).
//
//   - Finalizers (table assembly, closed-form analysis) run after all
//     units, in registration order.
//
// Consequently -parallel 1 and -parallel N produce byte-identical
// tables, metrics, traces, and run artifacts.

// Future is a placeholder for one experiment's assembled result,
// resolved when the plan's Run completes.
type Future[T any] struct {
	v T
}

// Get returns the resolved value; the zero value before Run finishes.
func (f *Future[T]) Get() T {
	if f == nil {
		var zero T
		return zero
	}
	return f.v
}

func (f *Future[T]) set(v T) { f.v = v }

// Resolved wraps an already-known value, for feeding a fixed input
// (e.g. a nil Table 1) into a plan-registered consumer such as
// Analysis.
func Resolved[T any](v T) *Future[T] { return &Future[T]{v: v} }

// unitResult pairs a unit's value with its private telemetry for the
// merge step.
type unitResult struct {
	v     any
	scope *scope.Unit
}

// Plan accumulates experiment units and runs them.
type Plan struct {
	o        Options
	profiler *profile.Builder
	units    []sched.Unit
	merges   []func(any)
	finals   []func() error

	mu       sync.Mutex
	schedule *sched.Schedule
}

// NewPlan creates an empty plan over the given options. Experiments
// registered on the plan observe o's seed and scale; o.Parallel sets
// the worker-pool size at Run (<= 0 selects GOMAXPROCS).
func NewPlan(o Options) *Plan { return &Plan{o: o} }

// Units returns the number of registered units.
func (p *Plan) Units() int { return len(p.units) }

// SetProfiler attaches the shared cost profiler completed units merge
// into. Each unit profiles live over its own scoped registry (counter
// deltas attribute correctly only while the unit's host is running),
// and the folded per-unit profile is absorbed at delivery. The caller
// must NOT also attach the profiler as a sink on the shared recorder:
// absorbed span events replaying through such a sink would be counted
// twice.
func (p *Plan) SetProfiler(b *profile.Builder) { p.profiler = b }

// add registers one unit. run receives the plan's options scoped to the
// unit's own telemetry (scope.Scope.Unit), with the live plane
// detached; store receives the unit's value, in declaration order.
func (p *Plan) add(name string, run func(Options) (any, error), store func(any)) {
	parent := p.o
	profiler := p.profiler
	p.units = append(p.units, sched.Unit{
		Name: name,
		Run: func() (any, error) {
			u := parent.Scope.Unit(profiler)
			uo := parent
			uo.Scope, uo.Obs = u.Scope, nil
			v, err := run(uo)
			return unitResult{v: v, scope: u}, err
		},
	})
	p.merges = append(p.merges, store)
}

// finally registers a post-run assembly step.
func (p *Plan) finally(fn func() error) { p.finals = append(p.finals, fn) }

// Run executes every registered unit on the worker pool and resolves
// every future. Results — telemetry and values alike — are folded in
// declaration order regardless of completion order; the first failing
// unit's error (lowest declaration index) aborts the plan.
func (p *Plan) Run() error {
	runner := sched.New(p.o.Parallel)
	sc, err := runner.RunTimed(p.units, func(i int, v any) error {
		ur := v.(unitResult)
		name := p.units[i].Name
		p.o.Scope.Absorb(ur.scope, name)
		// Units never drive the live sampler (their clocks are scoped),
		// so the plane takes one sample, tagged with the unit's name, per
		// absorbed unit.
		p.o.Obs.SampleUnit(name)
		if p.merges[i] != nil {
			p.merges[i](ur.v)
		}
		return nil
	})
	p.mu.Lock()
	p.schedule = sc
	p.mu.Unlock()
	p.recordSchedMetrics(sc)
	if err != nil {
		return err
	}
	for _, fn := range p.finals {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// Schedule returns the host-cost schedule of the last Run (nil before
// any run). Safe for concurrent use with Run: the obs plane's
// /api/plan handler polls this from the server goroutine.
func (p *Plan) Schedule() *sched.Schedule {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.schedule
}

// PlanReport builds the host-cost analysis of the last Run: per-unit
// timings, critical path, parallel efficiency. Never nil — before any
// run it is the empty report — so it plugs directly into
// runartifact.Artifact.SetPlan.
func (p *Plan) PlanReport() *profile.PlanReport {
	return profile.BuildPlanReport(p.Schedule())
}

// recordSchedMetrics surfaces the schedule in the shared metrics
// registry (sched_units_total, sched_workers,
// sched_queue_wait_seconds) so /metrics and the Prometheus exporter
// carry scheduler telemetry live. These are *host* metrics — real
// wall-clock, different at every -parallel — so artifact builders must
// snapshot with StripHost to keep the artifact's metrics section
// deterministic; the host view belongs in the plan section.
func (p *Plan) recordSchedMetrics(sc *sched.Schedule) {
	if p.o.Metrics == nil || sc == nil {
		return
	}
	const unitsHelp = "Scheduled experiment units, by completion status."
	var delivered, undelivered uint64
	for _, u := range sc.Units {
		if u.Delivered {
			delivered++
		} else {
			undelivered++
		}
	}
	p.o.Metrics.Counter("sched_units_total", unitsHelp, "status", "delivered").Add(delivered)
	if undelivered > 0 {
		p.o.Metrics.Counter("sched_units_total", unitsHelp, "status", "undelivered").Add(undelivered)
	}
	p.o.Metrics.Gauge("sched_workers",
		"Effective worker-pool size of the last scheduled batch.").Set(int64(sc.Workers))
	hist := p.o.Metrics.Histogram("sched_queue_wait_seconds",
		"Host time units waited between declaration and start.", metrics.DefBuckets)
	for _, u := range sc.Units {
		if u.Started {
			hist.Observe(u.QueueWaitSeconds())
		}
	}
}

// addTyped is add with typed run/store callbacks.
func addTyped[T any](p *Plan, name string, run func(Options) (T, error), store func(T)) {
	p.add(name,
		func(o Options) (any, error) { return run(o) },
		func(v any) { store(v.(T)) })
}
