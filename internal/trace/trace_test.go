package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperhammer/internal/simtime"
)

func TestEmitWritesJSONLines(t *testing.T) {
	var buf bytes.Buffer
	clock := &simtime.Clock{}
	r := New(&buf, 10)
	r.BindClock(clock)
	clock.Advance(90 * time.Second)
	r.Emit("vm.create", "memBytes", 123, "name", "test")
	r.Emit("dram.flip", "bit", uint(3))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 || ev.Kind != "vm.create" || ev.SimTime != "1m30s" {
		t.Errorf("event = %+v", ev)
	}
	if ev.Data["memBytes"].(float64) != 123 || ev.Data["name"] != "test" {
		t.Errorf("data = %v", ev.Data)
	}
	if r.Count() != 2 || r.EncodeErrors() != 0 {
		t.Errorf("count=%d errs=%d", r.Count(), r.EncodeErrors())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit("anything", "k", 1)
	if r.Count() != 0 || r.Recent() != nil || r.EncodeErrors() != 0 {
		t.Error("nil recorder not inert")
	}
}

func TestRecentRing(t *testing.T) {
	r := New(nil, 3)
	for i := 0; i < 5; i++ {
		r.Emit("e", "i", i)
	}
	recent := r.Recent()
	if len(recent) != 3 {
		t.Fatalf("recent = %d", len(recent))
	}
	if recent[0].Data["i"].(int) != 2 || recent[2].Data["i"].(int) != 4 {
		t.Errorf("ring contents wrong: %v", recent)
	}
}

func TestOddKeyValueHandled(t *testing.T) {
	r := New(nil, 1)
	r.Emit("e", "lonely")
	if v, ok := r.Recent()[0].Data["lonely"]; !ok || v != nil {
		t.Error("odd trailing key mishandled")
	}
}

func TestStringerNormalization(t *testing.T) {
	r := New(nil, 1)
	r.Emit("e", "d", 5*time.Second)
	if got := r.Recent()[0].Data["d"]; got != "5s" {
		t.Errorf("stringer value = %v", got)
	}
}

func TestErrorAndBytesNormalization(t *testing.T) {
	r := New(nil, 2)
	r.Emit("e", "err", errors.New("boom"), "blob", []byte{0xde, 0xad})
	data := r.Recent()[0].Data
	if data["err"] != "boom" {
		t.Errorf("error value = %v", data["err"])
	}
	if data["blob"] != "dead" {
		t.Errorf("bytes value = %v", data["blob"])
	}
	// Both forms must also survive JSON encoding without errors.
	var buf bytes.Buffer
	r2 := New(&buf, 0)
	r2.Emit("e", "err", errors.New("boom"), "blob", []byte{1, 2, 3})
	if r2.EncodeErrors() != 0 {
		t.Errorf("encode errors = %d", r2.EncodeErrors())
	}
}

func TestSpanNesting(t *testing.T) {
	clock := &simtime.Clock{}
	r := New(nil, 10)
	r.BindClock(clock)

	outer := r.StartSpan("outer", "k", 1)
	clock.Advance(2 * time.Second)
	inner := outer.StartChild("inner")
	clock.Advance(3 * time.Second)
	inner.End("ok", true)
	outer.End()

	evs := r.Recent()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	start0, start1, end1, end0 := evs[0], evs[1], evs[2], evs[3]
	if start0.Kind != "span.start" || start0.Data["name"] != "outer" {
		t.Errorf("outer start = %+v", start0)
	}
	if _, hasParent := start0.Data["parent"]; hasParent {
		t.Error("top-level span has a parent")
	}
	if start1.Data["parent"] != outer.id {
		t.Errorf("inner parent = %v, want %d", start1.Data["parent"], outer.id)
	}
	if end1.Data["durSim"] != "3s" || end1.Data["seconds"] != 3.0 {
		t.Errorf("inner end = %+v", end1.Data)
	}
	if end0.Data["durSim"] != "5s" {
		t.Errorf("outer durSim = %v", end0.Data["durSim"])
	}
	if end1.Data["ok"] != true {
		t.Errorf("extra kv lost: %+v", end1.Data)
	}
}

func TestSpanSiblingsShareParent(t *testing.T) {
	r := New(nil, 10)
	root := r.StartSpan("root")
	a := root.StartChild("a")
	a.End()
	b := root.StartChild("b")
	b.End()
	root.End()
	evs := r.Recent()
	// events: root.start a.start a.end b.start b.end root.end
	if evs[3].Data["parent"] != root.id {
		t.Errorf("sibling b parent = %v, want %d", evs[3].Data["parent"], root.id)
	}
}

func TestUnrelatedSpansStayRoots(t *testing.T) {
	r := New(nil, 10)
	a := r.StartSpan("a")
	b := r.StartSpan("b") // opened while a is open — NOT a child of a
	for _, ev := range r.Recent() {
		if _, has := ev.Data["parent"]; has {
			t.Errorf("independent span got a parent: %+v", ev.Data)
		}
	}
	b.End()
	a.End()
}

// TestConcurrentParentAttribution is the regression test for the
// shared-open-stack bug: spans started on one goroutine must never be
// attributed to a span another goroutine happens to have open.
func TestConcurrentParentAttribution(t *testing.T) {
	r := New(nil, 0)
	const workers = 8
	const each = 100
	type rec struct{ parent, child uint64 }
	got := make([][]rec, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p := r.StartSpan("p")
				c := p.StartChild("c")
				got[w] = append(got[w], rec{parent: p.id, child: c.parent})
				c.End()
				p.End()
			}
		}(w)
	}
	wg.Wait()
	for w, recs := range got {
		for i, rc := range recs {
			if rc.child != rc.parent {
				t.Fatalf("worker %d iter %d: child attributed to span %d, want %d",
					w, i, rc.child, rc.parent)
			}
		}
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var r *Recorder
	span := r.StartSpan("x", "k", 1)
	if span != nil {
		t.Fatal("nil recorder returned non-nil span")
	}
	span.End("k", 2) // must not panic
	if child := span.StartChild("y"); child != nil {
		t.Fatal("nil span returned non-nil child")
	}
}

func TestSinkReceivesEveryEvent(t *testing.T) {
	r := New(nil, 0)
	var mu sync.Mutex
	var kinds []string
	r.SetNamedSink("test", func(ev Event) {
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	})
	r.Emit("plain")
	s := r.StartSpan("s")
	c := s.StartChild("c")
	c.End()
	s.End()
	want := []string{"plain", "span.start", "span.start", "span.end", "span.end"}
	if len(kinds) != len(want) {
		t.Fatalf("sink saw %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("sink saw %v, want %v", kinds, want)
		}
	}
	r.SetNamedSink("test", nil)
	r.Emit("after")
	if len(kinds) != len(want) {
		t.Error("removed sink still receiving")
	}
}

// TestEventSpanReadsLiveAndDecodedEvents: Span reads the same IDs and
// name from a live event (native uint64 IDs) and from the same event
// after a JSON round trip (float64 IDs), and zeros for fields an event
// lacks.
func TestEventSpanReadsLiveAndDecodedEvents(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf, 8)
	root := r.StartSpan("root")
	root.StartChild("child").End()
	live := r.Recent()[1] // the child's span.start
	var decoded Event
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[1]), &decoded); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []Event{live, decoded} {
		id, parent, name := ev.Span()
		if id != 2 || parent != 1 || name != "child" {
			t.Errorf("%T ids: Span() = %d, %d, %q; want 2, 1, \"child\"", ev.Data["span"], id, parent, name)
		}
	}
	if id, parent, name := (Event{Kind: "vm.create", Data: map[string]any{"span": "x"}}).Span(); id != 0 || parent != 0 || name != "" {
		t.Errorf("non-span event: Span() = %d, %d, %q", id, parent, name)
	}
}

// TestNamedSinksAreIndependent covers the multi-consumer contract: the
// observability tap and the cost profiler attach under distinct names
// and both see every event; re-registering a name replaces only that
// sink (idempotent plane re-taps at host boot).
func TestNamedSinksAreIndependent(t *testing.T) {
	r := New(nil, 0)
	var a, b int
	r.SetNamedSink("obs", func(Event) { a++ })
	r.SetNamedSink("profile", func(Event) { b++ })
	r.Emit("one")
	r.Emit("two")
	if a != 2 || b != 2 {
		t.Errorf("sink counts = %d/%d, want 2/2", a, b)
	}
	// Replacing one name must not duplicate or disturb the other.
	r.SetNamedSink("obs", func(Event) { a += 10 })
	r.Emit("three")
	if a != 12 || b != 3 {
		t.Errorf("after replace: counts = %d/%d, want 12/3", a, b)
	}
	r.SetNamedSink("profile", nil)
	r.Emit("four")
	if a != 22 || b != 3 {
		t.Errorf("after removal: counts = %d/%d, want 22/3", a, b)
	}
	var nilRec *Recorder
	nilRec.SetNamedSink("x", func(Event) {}) // must not panic
}

func TestFlushFlushesBufferedWriter(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 1<<16)
	r := New(bw, 0)
	r.Emit("e", "k", 1)
	if buf.Len() != 0 {
		t.Skip("event larger than buffer; nothing to test")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("Flush did not reach the underlying writer")
	}
	var nilRec *Recorder
	if err := nilRec.Flush(); err != nil {
		t.Error("nil recorder Flush errored")
	}
	if err := New(nil, 0).Flush(); err != nil {
		t.Error("unbuffered recorder Flush errored")
	}
}

func TestConcurrentEmitAndSpans(t *testing.T) {
	var buf bytes.Buffer
	clock := &simtime.Clock{}
	r := New(&buf, 64)
	r.BindClock(clock)
	var wg sync.WaitGroup
	const workers = 8
	const each = 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				switch i % 3 {
				case 0:
					r.Emit("e", "w", w, "i", i)
				case 1:
					span := r.StartSpan("s", "w", w)
					span.End()
				default:
					r.Recent()
				}
			}
		}(w)
	}
	wg.Wait()
	if r.EncodeErrors() != 0 {
		t.Errorf("encode errors = %d", r.EncodeErrors())
	}
	// Every JSON line must be well-formed despite concurrent writers.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("corrupt line %q: %v", line, err)
		}
	}
}
