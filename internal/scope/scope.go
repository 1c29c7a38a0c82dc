// Package scope bundles the recorder planes a simulated host feeds —
// trace, metrics, introspection, forensics and the determinism ledger —
// into one value. kvm.Config and experiments.Options both embed it, so
// a plane reaches every booted host by copying one field, and the
// experiment engine derives and absorbs each scheduled unit's private
// telemetry in one place (Scope.Unit and Scope.Absorb).
//
// Every plane is optional: a nil recorder is a valid no-op, so the zero
// Scope observes nothing.
package scope

import (
	"hyperhammer/internal/forensics"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/trace"
)

// Scope is the set of recorder planes one host, or one whole run, feeds.
type Scope struct {
	// Trace, when non-nil, receives structured host- and tool-side
	// events (VM lifecycle, releases, splits, applied flips, spans).
	Trace *trace.Recorder
	// Metrics, when non-nil, receives counters, gauges and histograms
	// from every instrumented layer. A host binds it to its simulated
	// clock at boot, so exported rates are per simulated second.
	Metrics *metrics.Registry
	// Inspect, when non-nil, is the hardware introspection plane: DRAM
	// heatmaps, layout censuses and watchpoint alerts.
	Inspect *inspect.Inspector
	// Forensics, when non-nil, is the flip-provenance plane: per-attempt
	// flip lineage, verdicts, frame owners and outcome taxonomies.
	Forensics *forensics.Recorder
	// Ledger, when non-nil, is the determinism plane: rolling
	// per-stream fingerprints of every instrumented subsystem, sealed
	// into sim-time epochs. Its hooks only observe values the
	// simulation already produced, so enabling it changes no figure.
	Ledger *ledger.Recorder
}

// Unit is one scheduled unit's private telemetry: the scope its hosts
// run against, and the cost profile folded over the unit's spans.
type Unit struct {
	Scope Scope
	// prof folds the unit's spans; profiler is the shared builder it is
	// absorbed into. Both are nil when the run is not profiled.
	prof, profiler *profile.Builder
}

// Unit derives the private telemetry one scheduled unit runs against,
// so concurrent hosts never share a clock binding or cross-charge
// simulated time. profiler is the shared cost profiler the unit's
// profile folds into at Absorb (nil when the run is not profiled).
//
//   - The unit records into a capture recorder when s traces, the run
//     is profiled, or s inspects (watchpoints emit trace events).
//   - It meters into a fresh registry when s meters, the run is
//     profiled, or s inspects (the profiler and the watchpoint rules
//     read counters).
//   - When profiled, a per-unit profile builder over that registry is
//     the recorder's "profile" named sink.
//   - Inspect, Forensics and Ledger are each that plane's own Scoped().
func (s Scope) Unit(profiler *profile.Builder) *Unit {
	u := &Unit{profiler: profiler}
	if s.Trace != nil || profiler != nil || s.Inspect != nil {
		u.Scope.Trace = trace.NewCapture()
	}
	if s.Metrics != nil || profiler != nil || s.Inspect != nil {
		u.Scope.Metrics = metrics.New()
	}
	if profiler != nil {
		u.prof = profile.NewBuilder(u.Scope.Metrics)
		u.Scope.Trace.SetNamedSink("profile", u.prof.Consume)
	}
	u.Scope.Inspect = s.Inspect.Scoped()
	u.Scope.Forensics = s.Forensics.Scoped()
	u.Scope.Ledger = s.Ledger.Scoped()
	return u
}

// Absorb folds a completed unit's telemetry into s, tagged with the
// unit's name, in a fixed order: the captured trace replays through
// s.Trace (span IDs re-based, order preserved), then the unit's cost
// profile, metrics snapshot, inspector, forensics and ledger are
// absorbed. Callers absorb units in declaration order, which is what
// makes every plane byte-identical at any worker count.
func (s Scope) Absorb(u *Unit, name string) {
	s.Trace.Absorb(u.Scope.Trace)
	if u.profiler != nil && u.prof != nil {
		u.profiler.Absorb(u.prof.Snapshot())
	}
	if s.Metrics != nil && u.Scope.Metrics != nil {
		s.Metrics.Absorb(u.Scope.Metrics.Snapshot())
	}
	s.Inspect.Absorb(u.Scope.Inspect, name)
	s.Forensics.Absorb(u.Scope.Forensics, name)
	s.Ledger.Absorb(u.Scope.Ledger, name)
}
