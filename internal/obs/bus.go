// Package obs is the simulation's live observability plane. Where
// internal/metrics and internal/trace record what happened (a registry
// exported at exit, a JSONL file read after the fact), obs makes the
// same signals watchable while a campaign runs:
//
//   - Bus: a bounded, drop-counting in-process pub/sub that the trace
//     recorder and the periodic sampler publish into,
//   - Store: a ring-buffered time-series store that snapshots every
//     registry series on a simulated-time interval, turning metrics
//     into series over campaign time,
//   - Plane: the wiring between one run's observation scope (its
//     registry, recorder and recorder planes, fixed when the plane is
//     made) and a host's simulated clock,
//   - Server: an opt-in HTTP server exposing Prometheus text, JSON
//     snapshots and series, a live SSE event stream, pprof, and an
//     embedded status page,
//   - Inspect: offline analysis of recorded trace files (span trees,
//     kind counts, timelines, anomalies).
//
// Everything here observes the simulation from the host operator's
// side; nothing feeds back into simulated state, so enabling the plane
// cannot perturb an experiment's results.
package obs

import (
	"sync"
	"sync/atomic"
)

// Event is one bus message: a trace event or a sampler tick, stamped
// with the simulated time it happened at.
type Event struct {
	// Seq is the bus's own monotonically increasing sequence number
	// (distinct from the trace recorder's).
	Seq uint64 `json:"seq"`
	// SimSeconds is the simulated time of the event.
	SimSeconds float64 `json:"simSeconds"`
	// Kind names the event, e.g. "span.start", "dram.flip",
	// "obs.sample".
	Kind string `json:"kind"`
	// Data holds the event's fields.
	Data map[string]any `json:"data,omitempty"`
}

// Bus is a bounded in-process pub/sub. Publishing never blocks: a
// subscriber whose buffer is full loses the event and both the
// subscription and the bus count the drop, so backpressure from a slow
// HTTP client can never stall the simulating goroutine. The drop total
// depends on how fast a wall-clock client reads, so it stays out of the
// run's registry: /healthz and /metrics serve it from Stats. All
// methods are safe for concurrent use, and all no-op on a nil receiver.
type Bus struct {
	mu        sync.Mutex
	seq       uint64
	published uint64
	dropped   uint64
	subs      map[*Subscription]struct{}
	// recent retains the last eventKeep events for replay to late
	// subscribers.
	recent []Event
}

// eventKeep is how many bus events are retained for replay.
const eventKeep = 256

// NewBus creates a bus retaining the last eventKeep events for replay.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Subscription]struct{})}
}

// Subscription is one subscriber's bounded event feed.
type Subscription struct {
	bus     *Bus
	ch      chan Event
	dropped atomic.Uint64
	closed  bool // guarded by bus.mu
}

// Subscribe registers a subscriber with the given channel buffer
// (minimum 1). The caller must Cancel when done.
func (b *Bus) Subscribe(buf int) *Subscription {
	if b == nil {
		// A detached subscription: never receives, can be cancelled.
		return &Subscription{ch: make(chan Event)}
	}
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{bus: b, ch: make(chan Event, buf)}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// Events returns the subscription's feed. The channel is closed by
// Cancel.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped returns how many events this subscriber lost to a full
// buffer.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Cancel detaches the subscription and closes its channel. Safe to
// call more than once.
func (s *Subscription) Cancel() {
	if s == nil {
		return
	}
	if s.bus == nil {
		if !s.closed {
			s.closed = true
			close(s.ch)
		}
		return
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.bus.subs, s)
	close(s.ch)
}

// Publish stamps the event with the bus's sequence number and fans it
// out to every subscriber, dropping at full buffers. Safe on a nil
// receiver.
func (b *Bus) Publish(kind string, simSeconds float64, data map[string]any) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	b.published++
	ev := Event{Seq: b.seq, SimSeconds: simSeconds, Kind: kind, Data: data}
	b.recent = append(b.recent, ev)
	if len(b.recent) > eventKeep {
		b.recent = b.recent[len(b.recent)-eventKeep:]
	}
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			b.dropped++
		}
	}
}

// Recent returns the replay ring, oldest first.
func (b *Bus) Recent() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.recent))
	copy(out, b.recent)
	return out
}

// Stats returns totals: events published, events dropped across all
// subscribers, and the current subscriber count.
func (b *Bus) Stats() (published, dropped uint64, subscribers int) {
	if b == nil {
		return 0, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.dropped, len(b.subs)
}
