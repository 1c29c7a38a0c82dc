// Package inspect is the simulated-hardware introspection plane: where
// internal/metrics and internal/obs show what the *runner* is doing,
// inspect snapshots what the *simulated machine* looks like while a
// campaign runs — per-bank DRAM activation heatmaps and flip maps fed
// by cheap accumulation hooks in the fault model, a memory-layout
// census folding EPT page-size distribution, buddy freelist occupancy,
// virtio-mem plug state and frame ownership into one structure, and six
// fixed watchpoints evaluated at sample ticks on the simulated clock.
//
// Like the rest of the observability stack, the plane observes from
// the host operator's side and feeds nothing back into simulated
// state; everything it records is driven by the simulated clock and
// seed-deterministic inputs, so enabling it cannot perturb results and
// its snapshots are byte-identical across runs and across -parallel
// worker counts (per-unit inspectors absorb in declaration order,
// mirroring the metrics/trace/profile scopes).
package inspect

import (
	"sort"
	"sync"
	"time"

	"hyperhammer/internal/metrics"
)

// SampleEvery is the simulated-time interval between watchpoint
// evaluations. It is independent of the obs plane's sampler, so
// artifacts do not depend on whether the run is served live.
const SampleEvery = time.Second

// maxAlerts bounds the retained alert ring; totals keep counting past
// the bound.
const maxAlerts = 256

// Inspector accumulates introspection state for one telemetry scope: a
// whole CLI run, or one scheduled plan unit (see Scoped/Absorb). All
// methods are safe for concurrent use and no-ops on a nil receiver, so
// config threading never guards.
type Inspector struct {
	mu   sync.Mutex
	heat *Heatmap
	// reg is the metrics registry the watchpoints read sums from.
	reg *metrics.Registry
	// censusFn builds the bound host's current census.
	censusFn func() Census
	// emit publishes fired alerts as structured trace events
	// ("watchpoint.alert"), which the obs plane's trace tap relays
	// onto the event bus.
	emit func(kind string, kv ...any)

	// state and fired (alerts ever fired) are indexed like watchpoints.
	state  [len(watchpoints)]watchState
	fired  [len(watchpoints)]uint64
	alerts []Alert

	// census caches the bound host's census as of the last Evaluate
	// tick. The cache is what concurrent readers (the HTTP endpoints,
	// the live artifact builder) see: censusFn walks raw host state
	// and is only ever called on the simulating goroutine.
	census *Census

	// absorbed holds per-unit censuses folded in declaration order.
	absorbed []TaggedCensus
}

// New creates an Inspector.
func New() *Inspector {
	return &Inspector{heat: NewHeatmap(0, 0)}
}

// Scoped returns a fresh Inspector for one scheduled plan unit; fold
// it back with Absorb. Nil-safe.
func (ins *Inspector) Scoped() *Inspector {
	if ins == nil {
		return nil
	}
	return New()
}

// BindMachine sizes the heatmap for a host's DRAM dimensions. Called
// at host boot; re-binding (a unit booting several hosts) keeps
// accumulated counts and grows dimensions as needed.
func (ins *Inspector) BindMachine(banks, rows int) {
	if ins == nil {
		return
	}
	ins.mu.Lock()
	ins.heat.resize(banks, rows)
	ins.mu.Unlock()
}

// SetMetrics installs the registry the watchpoints read sums from.
func (ins *Inspector) SetMetrics(reg *metrics.Registry) {
	if ins == nil {
		return
	}
	ins.mu.Lock()
	ins.reg = reg
	ins.mu.Unlock()
}

// SetCensusFunc installs the bound host's census builder; the most
// recently bound host is the "live machine" census snapshots describe.
func (ins *Inspector) SetCensusFunc(fn func() Census) {
	if ins == nil {
		return
	}
	ins.mu.Lock()
	ins.censusFn = fn
	ins.mu.Unlock()
}

// SetEmit installs the structured-event hook fired alerts go through
// (normally the host trace recorder's Emit).
func (ins *Inspector) SetEmit(fn func(kind string, kv ...any)) {
	if ins == nil {
		return
	}
	ins.mu.Lock()
	ins.emit = fn
	ins.mu.Unlock()
}

// RecordRowActivations implements dram.ActivationSink: the fault model
// reports post-TRR, window-clipped per-row activation pressure here.
func (ins *Inspector) RecordRowActivations(bank, row int, n int64) {
	if ins == nil {
		return
	}
	ins.mu.Lock()
	ins.heat.addActivations(bank, row, n)
	ins.mu.Unlock()
}

// RecordFlip records one applied bit flip on (bank, row).
func (ins *Inspector) RecordFlip(bank, row int) {
	if ins == nil {
		return
	}
	ins.mu.Lock()
	ins.heat.addFlip(bank, row)
	ins.mu.Unlock()
}

// Evaluate runs every watchpoint against the current machine at the
// given simulated time and refreshes the census cache.
// kvm.NewHost arms it on the host clock via OnTick, so it always runs
// on the simulating goroutine; tests call it directly.
func (ins *Inspector) Evaluate(now time.Duration) {
	if ins == nil {
		return
	}
	ins.mu.Lock()
	fn := ins.censusFn
	ins.mu.Unlock()
	var census *Census
	if fn != nil {
		// Outside the lock: the builder walks host structures and may
		// take arbitrary time relative to concurrent snapshot readers.
		c := fn()
		census = &c
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if census != nil {
		ins.census = census
	}
	t := now.Seconds()
	for i, w := range watchpoints {
		v, ok := float64(ins.heat.maxRowWindow), true
		if w.family != "" {
			v, ok = ins.reg.Sum(w.family)
		}
		if !ok {
			continue
		}
		st := &ins.state[i]
		if w.rate {
			raw := v
			if !st.hasPrev || t <= st.prevT {
				st.prevVal, st.prevT, st.hasPrev = raw, t, true
				continue
			}
			v = (raw - st.prevVal) / (t - st.prevT)
			st.prevVal, st.prevT = raw, t
		}
		cond := v > w.threshold
		if cond && !st.active {
			ins.fireLocked(i, t, v)
		}
		st.active = cond
	}
}

// fireLocked records one alert of watchpoint i and emits it as a
// structured event.
func (ins *Inspector) fireLocked(i int, t, v float64) {
	w := watchpoints[i]
	ins.fired[i]++
	ins.alerts = append(ins.alerts, Alert{Rule: w.name, Expr: w.expr, SimSeconds: t, Value: v})
	if len(ins.alerts) > maxAlerts {
		ins.alerts = ins.alerts[len(ins.alerts)-maxAlerts:]
	}
	if ins.emit != nil {
		ins.emit("watchpoint.alert", "rule", w.name, "expr", w.expr, "value", v, "mode", "edge")
	}
}

// Absorb folds a completed scoped Inspector into this one, tagging its
// census and alerts with the plan unit's name. The parallel experiment
// engine calls this at delivery, in declaration order, which is what
// keeps snapshots byte-identical at any -parallel setting. Nil-safe on
// both sides.
func (ins *Inspector) Absorb(child *Inspector, unit string) {
	if ins == nil || child == nil {
		return
	}
	child.mu.Lock()
	heat := child.heat
	censusFn := child.censusFn
	alerts := append([]Alert(nil), child.alerts...)
	fired := child.fired
	nested := append([]TaggedCensus(nil), child.absorbed...)
	child.mu.Unlock()

	var census *Census
	if censusFn != nil {
		c := censusFn()
		census = &c
	}

	ins.mu.Lock()
	defer ins.mu.Unlock()
	ins.heat.absorb(heat)
	ins.absorbed = append(ins.absorbed, nested...)
	if census != nil {
		ins.absorbed = append(ins.absorbed, TaggedCensus{Unit: unit, Census: *census})
	}
	for i, n := range fired {
		ins.fired[i] += n
	}
	for _, a := range alerts {
		if a.Unit == "" {
			a.Unit = unit
		}
		ins.alerts = append(ins.alerts, a)
	}
	if len(ins.alerts) > maxAlerts {
		ins.alerts = ins.alerts[len(ins.alerts)-maxAlerts:]
	}
}

// HeatmapSnapshot copies the current heatmap. Nil-safe (empty
// snapshot).
func (ins *Inspector) HeatmapSnapshot() HeatmapSnapshot {
	if ins == nil {
		return HeatmapSnapshot{Activations: [][]int64{}, Flips: [][]int64{}}
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	return ins.heat.snapshot()
}

// Finalize refreshes the census cache and evaluates the watchpoints
// one last time at the final clock reading. CLIs call it after the run
// completes (the simulating goroutine is idle, so walking host state
// is safe) and before building the artifact, so the embedded census
// reflects the end state rather than the last tick.
func (ins *Inspector) Finalize(now time.Duration) { ins.Evaluate(now) }

// CensusSnapshot returns every absorbed unit census in declaration
// order, then the bound host's census as of the last Evaluate tick.
// Nil-safe.
func (ins *Inspector) CensusSnapshot() CensusSnapshot {
	s := CensusSnapshot{Censuses: []TaggedCensus{}}
	if ins == nil {
		return s
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	s.Censuses = append(s.Censuses, ins.absorbed...)
	if ins.census != nil {
		s.Censuses = append(s.Censuses, TaggedCensus{Census: *ins.census})
	}
	return s
}

// AlertsSnapshot copies the fired-alert state. Nil-safe.
func (ins *Inspector) AlertsSnapshot() AlertsSnapshot {
	s := AlertsSnapshot{ByRule: []RuleCount{}, Recent: []Alert{}}
	if ins == nil {
		return s
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	s.Recent = append(s.Recent, ins.alerts...)
	for i, n := range ins.fired {
		s.Total += n
		if n > 0 {
			s.ByRule = append(s.ByRule, RuleCount{Rule: watchpoints[i].name, Count: n})
		}
	}
	sort.Slice(s.ByRule, func(i, j int) bool { return s.ByRule[i].Rule < s.ByRule[j].Rule })
	return s
}
