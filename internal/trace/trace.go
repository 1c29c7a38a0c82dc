// Package trace provides structured event tracing for the simulation:
// hypervisor-side observability (VM lifecycle, releases, splits,
// applied flips, machine checks) written as JSON lines, with simulated
// timestamps, plus span-style phase tracing (StartSpan/End) for
// attributing where simulated time goes. It records what a host
// operator could observe — it is diagnostics for the simulation's
// users, not an attacker channel.
package trace

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"hyperhammer/internal/simtime"
)

// Event is one trace record.
type Event struct {
	// Seq is a monotonically increasing sequence number.
	Seq uint64 `json:"seq"`
	// SimTime is the simulated time of the event.
	SimTime string `json:"simTime"`
	// Kind is a dotted event name, e.g. "virtio.unplug".
	Kind string `json:"kind"`
	// Data holds the event's fields.
	Data map[string]any `json:"data,omitempty"`
}

// Recorder writes events. A nil *Recorder is valid and drops
// everything, so instrumented code needs no guards. All methods are
// safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	clock *simtime.Clock
	w     io.Writer
	enc   *json.Encoder
	seq   uint64
	// keep retains the most recent events in memory for tests and
	// programmatic inspection (0 disables).
	keep   int
	recent []Event
	// capture, when set, retains every event (unbounded) so the whole
	// stream can later be replayed into a parent recorder via Absorb.
	// Scoped per-unit recorders use it; Absorb drains it.
	capture  bool
	captured []Event
	errs     int
	nextSpan uint64
	// sinks maps sink name to a live tap: every recorded event is
	// copied to each registered sink (the observability plane and the
	// cost profiler attach independently). sinkList is the same set
	// flattened in deterministic (name-sorted) order for lock-free
	// iteration after emit.
	sinks    map[string]func(Event)
	sinkList []func(Event)
}

// New creates a recorder writing JSON lines to w (which may be nil for
// an in-memory-only recorder). keep bounds the in-memory ring (0
// disables retention). The recorder timestamps events from whatever
// clock it is bound to; the host binds its own clock at boot.
func New(w io.Writer, keep int) *Recorder {
	r := &Recorder{w: w, keep: keep}
	if w != nil {
		r.enc = json.NewEncoder(w)
	}
	return r
}

// NewCapture creates an in-memory recorder that retains every event it
// records, in order, so a scoped unit (one experiment running
// concurrently with others) can trace into isolation and have its
// whole stream replayed into the shared recorder afterwards with
// Absorb. Retention is unbounded; Absorb drains it.
func NewCapture() *Recorder {
	return &Recorder{capture: true}
}

// BindClock attaches the simulated clock used for event timestamps.
// Safe on a nil receiver.
func (r *Recorder) BindClock(c *simtime.Clock) {
	if r != nil {
		r.mu.Lock()
		r.clock = c
		r.mu.Unlock()
	}
}

// SetNamedSink installs fn as the live tap registered under name,
// replacing any previous sink of the same name. Every subsequently
// recorded event is passed to each sink after the recorder's own lock
// is released (so fn may call back into the recorder, though recursing
// from a sink is usually a mistake). A nil fn removes that tap.
// Independent consumers — the observability bus, the cost profiler —
// use distinct names and all receive every event. Safe on a nil
// receiver.
func (r *Recorder) SetNamedSink(name string, fn func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.sinks == nil {
		r.sinks = make(map[string]func(Event))
	}
	if fn == nil {
		delete(r.sinks, name)
	} else {
		r.sinks[name] = fn
	}
	names := make([]string, 0, len(r.sinks))
	for n := range r.sinks {
		names = append(names, n)
	}
	sort.Strings(names)
	r.sinkList = make([]func(Event), 0, len(names))
	for _, n := range names {
		r.sinkList = append(r.sinkList, r.sinks[n])
	}
	r.mu.Unlock()
}

// Emit records one event. kv lists alternating keys and values; a
// trailing odd key gets the value nil. Safe on a nil receiver.
func (r *Recorder) Emit(kind string, kv ...any) {
	if r == nil {
		return
	}
	data := buildData(kv)
	r.mu.Lock()
	ev := r.emitLocked(kind, data)
	sinks := r.sinkList
	r.mu.Unlock()
	for _, sink := range sinks {
		sink(ev)
	}
}

// buildData converts alternating key/value pairs into an event's Data
// map.
func buildData(kv []any) map[string]any {
	if len(kv) == 0 {
		return nil
	}
	data := make(map[string]any, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		if i+1 < len(kv) {
			data[key] = normalize(kv[i+1])
		} else {
			data[key] = nil
		}
	}
	return data
}

// emitLocked stamps, writes, and retains one event, returning it for
// the sink. Caller holds r.mu.
func (r *Recorder) emitLocked(kind string, data map[string]any) Event {
	r.seq++
	simNow := time.Duration(0)
	if r.clock != nil {
		simNow = r.clock.Now()
	}
	ev := Event{
		Seq:     r.seq,
		SimTime: simNow.Round(time.Millisecond).String(),
		Kind:    kind,
		Data:    data,
	}
	if r.enc != nil {
		if err := r.enc.Encode(ev); err != nil {
			r.errs++
		}
	}
	if r.keep > 0 {
		r.recent = append(r.recent, ev)
		if len(r.recent) > r.keep {
			r.recent = r.recent[len(r.recent)-r.keep:]
		}
	}
	if r.capture {
		r.captured = append(r.captured, ev)
	}
	return ev
}

// Absorb replays everything a capture-mode child recorder accumulated
// into r, draining the child: events keep their simulated timestamps
// and relative order but are renumbered into r's sequence, and span
// IDs are offset past r's own so merged streams cannot collide. Each
// replayed event flows through r's writer, ring, and sinks exactly as
// if it had been emitted on r. Deterministic merging is the caller's
// job: absorbing completed units in declaration order (not completion
// order) yields a byte-identical stream regardless of how many workers
// ran the units. Safe on nil receiver or child.
func (r *Recorder) Absorb(child *Recorder) {
	if r == nil || child == nil || child == r {
		return
	}
	child.mu.Lock()
	events := child.captured
	child.captured = nil
	childSpans := child.nextSpan
	child.mu.Unlock()
	if len(events) == 0 && childSpans == 0 {
		return
	}
	r.mu.Lock()
	offset := r.nextSpan
	r.nextSpan += childSpans
	replayed := make([]Event, len(events))
	for i, ev := range events {
		if offset != 0 && (ev.Kind == "span.start" || ev.Kind == "span.end") {
			data := make(map[string]any, len(ev.Data))
			for k, v := range ev.Data {
				data[k] = v
			}
			id, parent, _ := ev.Span()
			if id != 0 {
				data["span"] = id + offset
			}
			if parent != 0 {
				data["parent"] = parent + offset
			}
			ev.Data = data
		}
		r.seq++
		ev.Seq = r.seq
		if r.enc != nil {
			if err := r.enc.Encode(ev); err != nil {
				r.errs++
			}
		}
		if r.keep > 0 {
			r.recent = append(r.recent, ev)
			if len(r.recent) > r.keep {
				r.recent = r.recent[len(r.recent)-r.keep:]
			}
		}
		if r.capture {
			r.captured = append(r.captured, ev)
		}
		replayed[i] = ev
	}
	sinks := r.sinkList
	r.mu.Unlock()
	for _, ev := range replayed {
		for _, sink := range sinks {
			sink(ev)
		}
	}
}

// Span reads a span.start or span.end event's span ID, parent span ID
// and name, each zero when the event lacks it. IDs are native uint64 in
// events from a live recorder and float64 after a JSON round trip; both
// read the same, so live sinks and offline readers of a recorded trace
// share one coercion.
func (ev Event) Span() (id, parent uint64, name string) {
	name, _ = ev.Data["name"].(string)
	return spanID(ev.Data["span"]), spanID(ev.Data["parent"]), name
}

func spanID(v any) uint64 {
	switch x := v.(type) {
	case uint64:
		return x
	case float64:
		return uint64(x)
	case int:
		return uint64(x)
	}
	return 0
}

// normalize converts values that encode poorly into plain
// JSON-friendly forms: errors become their message, byte slices are
// hex-encoded (encoding/json would base64 them, which is useless in a
// grep-able trace), and Stringers render as their String().
func normalize(v any) any {
	switch x := v.(type) {
	case error:
		return x.Error()
	case []byte:
		return hex.EncodeToString(x)
	case interface{ String() string }:
		return x.String()
	default:
		return v
	}
}

// Recent returns the retained events, oldest first.
func (r *Recorder) Recent() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.recent))
	copy(out, r.recent)
	return out
}

// Count returns how many events were emitted.
func (r *Recorder) Count() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Flush pushes buffered events down to the underlying writer: if the
// recorder's writer implements Flush() error (e.g. *bufio.Writer) it is
// flushed, and a flush failure counts as an encode error. CLIs call
// this on every exit path — os.Exit skips defers, and a buffered tail
// of a trace is exactly the part that explains a crash. Safe on a nil
// receiver.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.w.(interface{ Flush() error })
	if !ok {
		return nil
	}
	if err := f.Flush(); err != nil {
		r.errs++
		return err
	}
	return nil
}

// EncodeErrors returns how many events failed to serialize or write.
func (r *Recorder) EncodeErrors() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errs
}

// Span is one open phase. End closes it. A nil *Span is valid and
// no-ops, matching the nil Recorder.
type Span struct {
	r      *Recorder
	id     uint64
	parent uint64
	name   string
	start  time.Duration
}

// StartSpan opens a top-level phase span named name and emits a
// "span.start" event carrying the span ID and any extra key/value
// pairs. Nesting is explicit: child spans are opened with
// Span.StartChild, never inferred from what happens to be open, so
// spans started concurrently from different goroutines cannot corrupt
// each other's ancestry. Safe on a nil receiver, returning a nil span.
func (r *Recorder) StartSpan(name string, kv ...any) *Span {
	if r == nil {
		return nil
	}
	return r.startSpan(0, name, kv)
}

// StartChild opens a span nested under s, emitting a "span.start"
// event whose parent field is s's span ID. Safe on a nil receiver,
// returning a nil span, so call chains off a disabled recorder stay
// guard-free.
func (s *Span) StartChild(name string, kv ...any) *Span {
	if s == nil || s.r == nil {
		return nil
	}
	return s.r.startSpan(s.id, name, kv)
}

// startSpan allocates a span under the given parent ID (0 for roots)
// and emits its start event.
func (r *Recorder) startSpan(parent uint64, name string, kv []any) *Span {
	data := buildData(kv)
	if data == nil {
		data = make(map[string]any, 3)
	}
	r.mu.Lock()
	r.nextSpan++
	id := r.nextSpan
	start := time.Duration(0)
	if r.clock != nil {
		start = r.clock.Now()
	}
	data["span"] = id
	data["name"] = name
	if parent != 0 {
		data["parent"] = parent
	}
	ev := r.emitLocked("span.start", data)
	sinks := r.sinkList
	r.mu.Unlock()
	for _, sink := range sinks {
		sink(ev)
	}
	return &Span{r: r, id: id, parent: parent, name: name, start: start}
}

// End closes the span, emitting a "span.end" event with the simulated
// duration since StartSpan plus any extra key/value pairs. Safe on a
// nil receiver; ending twice emits twice (don't).
func (s *Span) End(kv ...any) {
	if s == nil || s.r == nil {
		return
	}
	r := s.r
	data := buildData(kv)
	if data == nil {
		data = make(map[string]any, 4)
	}
	r.mu.Lock()
	now := time.Duration(0)
	if r.clock != nil {
		now = r.clock.Now()
	}
	dur := now - s.start
	data["span"] = s.id
	data["name"] = s.name
	if s.parent != 0 {
		data["parent"] = s.parent
	}
	data["durSim"] = dur.Round(time.Millisecond).String()
	data["seconds"] = dur.Seconds()
	ev := r.emitLocked("span.end", data)
	sinks := r.sinkList
	r.mu.Unlock()
	for _, sink := range sinks {
		sink(ev)
	}
}
