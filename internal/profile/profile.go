// Package profile is the simulation's cost profiler: it folds the
// span trace (explicit parenting, so ancestry is exact) into a
// per-span-path cost profile attributing simulated time, DRAM row
// activations, and hammer work to the campaign phase that spent them.
//
// The profiler answers the question the paper's evaluation revolves
// around — where do the simulated hours go (Section 4.1's 1.22 h/GiB
// profiling throughput, the ~4 minute steer-and-exploit attempts, the
// 180 s reboot tax of every failed attempt) — and makes it diffable
// across runs: the folded output is deterministic for a fixed seed, so
// two runs can be compared entry by entry (see internal/runartifact
// and hh diff).
//
// A Builder consumes trace events live (attach it to a trace.Recorder
// with SetNamedSink), charging counter deltas from the metrics
// registry to the innermost open span. Snapshots export as folded
// flamegraph stacks (WriteFolded) or gzipped pprof protobuf
// (WritePprof); hh inspect is the offline reader of a recorded trace.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"hyperhammer/internal/metrics"
	"hyperhammer/internal/trace"
)

// PathSep joins span names into a path; it is the flamegraph folded
// stack separator, so paths render directly.
const PathSep = ";"

// Entry is the aggregated cost of one span path (e.g.
// "attack.campaign;attack.attempt;attack.steer", summed over every
// attempt). Inclusive values count the whole subtree; Self values
// exclude child spans, which is what a flamegraph plots.
type Entry struct {
	// Path is the PathSep-joined span-name chain from root to leaf.
	Path string `json:"path"`
	// Count is how many spans closed at this path.
	Count int64 `json:"count"`
	// SimSeconds is the inclusive simulated time; SelfSimSeconds
	// excludes time attributed to child spans.
	SimSeconds     float64 `json:"simSeconds"`
	SelfSimSeconds float64 `json:"selfSimSeconds"`
	// Activations is the inclusive DRAM row-activation count charged
	// while spans at this path were open (live profiling only);
	// SelfActivations excludes children.
	Activations     int64 `json:"activations"`
	SelfActivations int64 `json:"selfActivations"`
	// HammerRounds is the inclusive hammer-round count, attributed the
	// same way.
	HammerRounds     int64 `json:"hammerRounds"`
	SelfHammerRounds int64 `json:"selfHammerRounds"`
}

// SubsystemStat counts trace events per subsystem (the dotted-kind
// prefix: "virtio.unplug" belongs to "virtio").
type SubsystemStat struct {
	Name   string `json:"name"`
	Events int64  `json:"events"`
}

// Profile is one folded cost profile, ready to serialize.
type Profile struct {
	// Entries is the per-path cost table, sorted by path.
	Entries []Entry `json:"entries"`
	// Subsystems is the per-subsystem event census, sorted by name.
	Subsystems []SubsystemStat `json:"subsystems,omitempty"`
	// Events is the number of trace events consumed.
	Events int64 `json:"events"`
	// OpenSpans counts spans that had started but not ended at
	// snapshot time (nonzero mid-run or after a crash).
	OpenSpans int `json:"openSpans"`
	// UnmatchedEnds counts span.end events whose start was never seen
	// (trace cut mid-file).
	UnmatchedEnds int `json:"unmatchedEnds,omitempty"`
}

// TotalActivations returns the profile-attributed DRAM activations.
func (p *Profile) TotalActivations() int64 {
	var t int64
	for _, e := range p.Entries {
		t += e.SelfActivations
	}
	return t
}

// Lookup returns the entry at the given path, if present.
func (p *Profile) Lookup(path string) (Entry, bool) {
	i := sort.Search(len(p.Entries), func(i int) bool { return p.Entries[i].Path >= path })
	if i < len(p.Entries) && p.Entries[i].Path == path {
		return p.Entries[i], true
	}
	return Entry{}, false
}

// WriteFolded writes the profile as flamegraph folded stacks: one
// "path value" line per entry, the value being exclusive simulated
// time in integer microseconds. Lines are path-sorted, so output for a
// fixed seed is byte-identical across runs.
func (p *Profile) WriteFolded(w io.Writer) error {
	for _, e := range p.Entries {
		if _, err := fmt.Fprintf(w, "%s %d\n", e.Path, int64(e.SelfSimSeconds*1e6)); err != nil {
			return err
		}
	}
	return nil
}

// Folded returns WriteFolded's output as a string.
func (p *Profile) Folded() string {
	var sb strings.Builder
	p.WriteFolded(&sb) //nolint:errcheck // strings.Builder cannot fail
	return sb.String()
}

// openSpan is one started-but-not-ended span the builder tracks.
type openSpan struct {
	path string
	// Counter readings at span start.
	actStart, roundStart uint64
	// Accumulated inclusive costs of already-closed children, to be
	// subtracted for this span's exclusive cost.
	childSeconds float64
	childActs    uint64
	childRounds  uint64
}

// aggEntry accumulates one path's costs.
type aggEntry struct {
	count                int64
	seconds, selfSeconds float64
	acts, selfActs       uint64
	rounds, selfRounds   uint64
}

// Builder folds span events into a cost profile as they are recorded.
// Attach with rec.SetNamedSink("profile", b.Consume). All methods are
// safe for concurrent use; a nil *Builder no-ops.
type Builder struct {
	mu            sync.Mutex
	acts          *metrics.Counter
	rounds        *metrics.Counter
	open          map[uint64]*openSpan
	agg           map[string]*aggEntry
	subs          map[string]int64
	events        int64
	unmatchedEnds int
}

// NewBuilder creates a builder. reg, when non-nil, supplies the DRAM
// activation and hammer-round counters whose deltas are charged to the
// span open at the time they occur; a nil registry yields a profile of
// simulated time only.
func NewBuilder(reg *metrics.Registry) *Builder {
	return &Builder{
		acts:   reg.Counter("dram_activations_total", "DRAM row activations driven by hammer operations."),
		rounds: reg.Counter("hammer_rounds_total", "Total hammer rounds across all operations."),
		open:   make(map[uint64]*openSpan),
		agg:    make(map[string]*aggEntry),
		subs:   make(map[string]int64),
	}
}

// Consume folds one trace event into the profile. Non-span events only
// feed the subsystem census. Safe on a nil receiver.
func (b *Builder) Consume(ev trace.Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events++
	sub := ev.Kind
	if i := strings.IndexByte(sub, '.'); i > 0 {
		sub = sub[:i]
	}
	b.subs[sub]++

	switch ev.Kind {
	case "span.start":
		id, parentID, name := ev.Span()
		if id == 0 {
			return
		}
		path := name
		if parent, ok := b.open[parentID]; ok {
			path = parent.path + PathSep + name
		}
		b.open[id] = &openSpan{
			path:       path,
			actStart:   b.acts.Value(),
			roundStart: b.rounds.Value(),
		}
	case "span.end":
		id, _, _ := ev.Span()
		s, ok := b.open[id]
		if !ok {
			b.unmatchedEnds++
			return
		}
		delete(b.open, id)
		seconds, _ := ev.Data["seconds"].(float64)
		actDelta := counterDelta(b.acts.Value(), s.actStart)
		roundDelta := counterDelta(b.rounds.Value(), s.roundStart)

		a := b.agg[s.path]
		if a == nil {
			a = &aggEntry{}
			b.agg[s.path] = a
		}
		a.count++
		a.seconds += seconds
		a.selfSeconds += clampPos(seconds - s.childSeconds)
		a.acts += actDelta
		a.selfActs += actDelta - min64(actDelta, s.childActs)
		a.rounds += roundDelta
		a.selfRounds += roundDelta - min64(roundDelta, s.childRounds)

		// Charge this span's inclusive cost to its (still open) parent.
		if i := strings.LastIndex(s.path, PathSep); i >= 0 {
			parentPath := s.path[:i]
			for _, p := range b.open {
				if p.path == parentPath {
					p.childSeconds += seconds
					p.childActs += actDelta
					p.childRounds += roundDelta
					break
				}
			}
		}
	}
}

// Absorb merges a finished profile — typically built live by a scoped
// per-unit builder over that unit's own registry — into this builder's
// aggregate, adding per-path counts and costs, subsystem censuses, and
// event totals. Counter attribution carries over exactly because the
// unit's builder charged deltas live; replaying the unit's trace into
// a shared builder instead would see only static counters. Safe on a
// nil receiver or profile.
func (b *Builder) Absorb(p *Profile) {
	if b == nil || p == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events += p.Events
	b.unmatchedEnds += p.UnmatchedEnds
	for _, e := range p.Entries {
		a := b.agg[e.Path]
		if a == nil {
			a = &aggEntry{}
			b.agg[e.Path] = a
		}
		a.count += e.Count
		a.seconds += e.SimSeconds
		a.selfSeconds += e.SelfSimSeconds
		a.acts += uint64(e.Activations)
		a.selfActs += uint64(e.SelfActivations)
		a.rounds += uint64(e.HammerRounds)
		a.selfRounds += uint64(e.SelfHammerRounds)
	}
	for _, s := range p.Subsystems {
		b.subs[s.Name] += s.Events
	}
}

// Snapshot returns the profile folded so far. Entries are path-sorted;
// taking a snapshot does not reset the builder.
func (b *Builder) Snapshot() *Profile {
	p := &Profile{}
	if b == nil {
		return p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p.Events = b.events
	p.OpenSpans = len(b.open)
	p.UnmatchedEnds = b.unmatchedEnds
	paths := make([]string, 0, len(b.agg))
	for path := range b.agg {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		a := b.agg[path]
		p.Entries = append(p.Entries, Entry{
			Path:             path,
			Count:            a.count,
			SimSeconds:       a.seconds,
			SelfSimSeconds:   a.selfSeconds,
			Activations:      int64(a.acts),
			SelfActivations:  int64(a.selfActs),
			HammerRounds:     int64(a.rounds),
			SelfHammerRounds: int64(a.selfRounds),
		})
	}
	subs := make([]string, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	for _, s := range subs {
		p.Subsystems = append(p.Subsystems, SubsystemStat{Name: s, Events: b.subs[s]})
	}
	return p
}

// counterDelta subtracts two monotonic counter readings, tolerating a
// registry swap mid-span (reading went backwards: charge nothing).
func counterDelta(now, start uint64) uint64 {
	if now < start {
		return 0
	}
	return now - start
}

func clampPos(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
