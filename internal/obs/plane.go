package obs

import (
	"sync"
	"time"

	"hyperhammer/internal/metrics"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/runstore"
	"hyperhammer/internal/scope"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/trace"
)

// Config tunes the plane. The zero value selects usable defaults.
type Config struct {
	// SampleEvery is the simulated-time interval between registry
	// snapshots (default 1 simulated second).
	SampleEvery time.Duration
}

// keepAlive is the wall-clock interval between SSE comment frames on
// /api/events. Keepalives let proxies and clients distinguish a quiet
// simulation from a dead connection.
const keepAlive = 5 * time.Second

// Plane wires a metrics registry, the trace recorder, and host clocks
// into one live view: a sampler turns the registry into time series on
// a simulated-time cadence, and trace events stream onto the bus. A
// nil *Plane is a valid no-op, matching the nil registry and recorder,
// so config threading never guards.
type Plane struct {
	reg       *metrics.Registry
	bus       *Bus
	store     *Store
	every     time.Duration
	keepalive time.Duration
	start     time.Time

	mu       sync.Mutex
	profiler *profile.Builder
	artifact func() any
	rec      scope.Scope
	plan     func() *profile.PlanReport
	runstore *runstore.Store
}

// NewPlane creates a plane over reg (which may be nil: the plane then
// serves empty metrics but still carries trace events).
func NewPlane(reg *metrics.Registry, cfg Config) *Plane {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Second
	}
	p := &Plane{
		reg:       reg,
		bus:       NewBus(),
		store:     NewStore(),
		every:     cfg.SampleEvery,
		keepalive: keepAlive,
		start:     time.Now(),
	}
	// Surface the bus's drop total as a registry metric so dashboards
	// and the obs-bus-drops watchpoint see silent event loss; stays at
	// zero in deterministic runs (no slow subscribers).
	p.bus.SetDropCounter(reg.Counter("obs_bus_dropped_total",
		"Events the observability bus dropped on full subscriber buffers."))
	return p
}

// Registry returns the plane's registry (nil on a nil plane).
func (p *Plane) Registry() *metrics.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Bus returns the event bus (nil on a nil plane; Bus methods tolerate
// that).
func (p *Plane) Bus() *Bus {
	if p == nil {
		return nil
	}
	return p.bus
}

// Store returns the time-series store (nil on a nil plane).
func (p *Plane) Store() *Store {
	if p == nil {
		return nil
	}
	return p.store
}

// SampleEvery returns the simulated sampling interval.
func (p *Plane) SampleEvery() time.Duration {
	if p == nil {
		return 0
	}
	return p.every
}

// SimNow returns the bound registry clock's reading (zero without a
// registry), the plane's notion of "now" for log stamping.
func (p *Plane) SimNow() time.Duration {
	if p == nil {
		return 0
	}
	return p.reg.SimTime()
}

// Uptime returns the wall-clock age of the plane.
func (p *Plane) Uptime() time.Duration {
	if p == nil {
		return 0
	}
	return time.Since(p.start)
}

// BindClock installs the periodic sampler on a simulated clock.
// kvm.NewHost calls this at boot for the configured plane, so every
// host a campaign or experiment boots feeds the same series store.
// An immediate sample anchors each series at the host's t=0. Safe on
// a nil receiver and a nil clock.
func (p *Plane) BindClock(c *simtime.Clock) {
	if p == nil || c == nil {
		return
	}
	p.sample()
	c.OnTick(p.every, func(time.Duration) { p.sample() })
}

// sample snapshots the registry into the store and announces it on the
// bus.
func (p *Plane) sample() {
	snap := p.reg.Snapshot()
	p.store.Record(snap)
	p.bus.Publish("obs.sample", snap.SimSeconds, map[string]any{
		"sample":   p.store.Samples(),
		"counters": len(snap.Counters),
		"gauges":   len(snap.Gauges),
	})
}

// SampleUnit snapshots the registry into the store with every point
// tagged as owned by the named scheduled unit, and announces the merge
// on the bus as a "sched.unit" event. The parallel experiment engine
// calls this after folding a completed unit's scoped telemetry into
// the shared registry: concurrent units never drive the sampler
// directly (their clocks are scoped), so tagged merge-time samples are
// what keeps the live view coherent. Safe on a nil receiver.
func (p *Plane) SampleUnit(unit string) {
	if p == nil {
		return
	}
	snap := p.reg.Snapshot()
	p.store.RecordTagged(snap, unit)
	p.bus.Publish("sched.unit", snap.SimSeconds, map[string]any{
		"unit":     unit,
		"sample":   p.store.Samples(),
		"counters": len(snap.Counters),
	})
}

// AttachProfile installs the cost profiler whose snapshots the
// server's /api/profile endpoint serves. The plane only reads it: its
// owner feeds it, by attaching it to a recorder as the "profile" sink
// or handing it to an experiment plan. Safe on a nil receiver.
func (p *Plane) AttachProfile(b *profile.Builder) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.profiler = b
	p.mu.Unlock()
}

// Profile snapshots the attached profiler (empty profile when none is
// attached, so handlers never nil-check).
func (p *Plane) Profile() *profile.Profile {
	if p == nil {
		return &profile.Profile{}
	}
	p.mu.Lock()
	b := p.profiler
	p.mu.Unlock()
	return b.Snapshot()
}

// SetScope installs the recorder planes the server's section endpoints
// serve from: /api/heatmap, /api/census and /api/alerts read
// s.Inspect, /api/forensics s.Forensics, /api/ledger s.Ledger. A nil
// plane in s (or never calling this) makes its endpoints serve
// empty-but-schema-valid snapshots. Safe on a nil receiver.
func (p *Plane) SetScope(s scope.Scope) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.rec = s
	p.mu.Unlock()
}

// recorders returns the installed scope (every plane's snapshot is
// nil-safe, so unset planes need no guard).
func (p *Plane) recorders() scope.Scope {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rec
}

// SetPlanFunc installs the callback /api/plan serves: the host-cost
// schedule analysis of the current batch. The CLIs hand in a closure
// (e.g. experiments.Plan.PlanReport) so the report reflects whatever
// has been scheduled by request time. A nil fn (or never calling
// this) makes the endpoint serve an empty-but-schema-valid report.
// Safe on a nil receiver.
func (p *Plane) SetPlanFunc(fn func() *profile.PlanReport) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.plan = fn
	p.mu.Unlock()
}

// PlanReport returns the installed plan callback's current report,
// never nil: without a callback (or when it returns nil) the empty
// report is served, so handlers and pollers never guard.
func (p *Plane) PlanReport() *profile.PlanReport {
	if p == nil {
		return profile.EmptyPlanReport()
	}
	p.mu.Lock()
	fn := p.plan
	p.mu.Unlock()
	if fn == nil {
		return profile.EmptyPlanReport()
	}
	if r := fn(); r != nil {
		return r
	}
	return profile.EmptyPlanReport()
}

// SetRunStore installs the run-history store the server's /api/history
// and /api/trend endpoints serve from. A nil store (or never calling
// this) makes both endpoints serve empty-but-schema-valid documents —
// runstore's readers are nil-safe and hand out snapshot copies, so the
// endpoints never race a CLI's in-flight ingest. Safe on a nil
// receiver.
func (p *Plane) SetRunStore(s *runstore.Store) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.runstore = s
	p.mu.Unlock()
}

// RunStore returns the installed run-history store (nil when unset;
// runstore methods are nil-safe).
func (p *Plane) RunStore() *runstore.Store {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runstore
}

// SetArtifactFunc installs the callback /api/artifact serves. The
// value is JSON-encoded per request, so the CLIs hand in a closure
// building the current runartifact bundle without obs importing that
// package. Safe on a nil receiver.
func (p *Plane) SetArtifactFunc(fn func() any) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.artifact = fn
	p.mu.Unlock()
}

// ArtifactFunc returns the installed callback (nil when unset).
func (p *Plane) ArtifactFunc() func() any {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.artifact
}

// TapTrace streams every event the recorder emits onto the plane's
// bus, timestamps converted to seconds. The tap registers under the
// named sink "obs", so re-tapping at every host boot is idempotent and
// leaves other consumers of the recorder, the cost profiler among
// them, undisturbed. Safe on a nil receiver (the recorder keeps
// whatever sinks it had).
func (p *Plane) TapTrace(r *trace.Recorder) {
	if p == nil {
		return
	}
	r.SetNamedSink("obs", func(ev trace.Event) {
		sim := 0.0
		if d, err := time.ParseDuration(ev.SimTime); err == nil {
			sim = d.Seconds()
		}
		p.bus.Publish(ev.Kind, sim, ev.Data)
	})
}
