package obs

import (
	"time"

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

// Plane wires one run's observation scope into a live view: a sampler
// turns the scope's metrics registry into time series on a
// simulated-time cadence, the scope's trace events stream onto the
// bus, and the server serves the scope's recorder planes. A nil *Plane
// is a valid no-op, matching the nil registry and recorder, so config
// threading never guards.
type Plane struct {
	scope     scope.Scope
	bus       *Bus
	store     *Store
	every     time.Duration
	keepalive time.Duration
	start     time.Time
}

// NewPlane creates the plane over the scope a run feeds, fixed for the
// plane's life. It samples s.Metrics (which may be nil: the plane then
// serves empty metrics but still carries trace events), taps s.Trace
// under the named sink "obs" so every recorded event reaches the bus
// beside the recorder's other consumers, and serves s.Inspect,
// s.Forensics and s.Ledger at their /api endpoints (a nil plane there
// serves an empty-but-schema-valid snapshot).
func NewPlane(s scope.Scope, cfg Config) *Plane {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Second
	}
	p := &Plane{
		scope:     s,
		bus:       NewBus(),
		store:     NewStore(),
		every:     cfg.SampleEvery,
		keepalive: keepAlive,
		start:     time.Now(),
	}
	// Surface the bus's drop total as a registry metric so dashboards
	// and the obs-bus-drops watchpoint see silent event loss; stays at
	// zero in deterministic runs (no slow subscribers).
	p.bus.SetDropCounter(s.Metrics.Counter("obs_bus_dropped_total",
		"Events the observability bus dropped on full subscriber buffers."))
	s.Trace.SetNamedSink("obs", func(ev trace.Event) {
		p.bus.Publish(ev.Kind, simSeconds(ev), ev.Data)
	})
	return p
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

// BindClock installs the periodic sampler on a simulated clock. hh run
// calls it once its host has booted; an immediate sample anchors each
// series at the host's t=0. Safe on a nil receiver and a nil clock.
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
	snap := p.scope.Metrics.Snapshot()
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
	snap := p.scope.Metrics.Snapshot()
	p.store.RecordTagged(snap, unit)
	p.bus.Publish("sched.unit", snap.SimSeconds, map[string]any{
		"unit":     unit,
		"sample":   p.store.Samples(),
		"counters": len(snap.Counters),
	})
}

// simSeconds reads an event's simulated timestamp in seconds (0 when
// it does not parse).
func simSeconds(ev trace.Event) float64 {
	d, err := time.ParseDuration(ev.SimTime)
	if err != nil {
		return 0
	}
	return d.Seconds()
}
