package profile

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/metrics"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/trace"
)

// rig wires a recorder, clock, and registry to a live builder, the way
// the CLIs do.
func rig(t *testing.T) (*trace.Recorder, *simtime.Clock, *metrics.Registry, *Builder) {
	t.Helper()
	clock := &simtime.Clock{}
	reg := metrics.New()
	reg.BindClock(clock)
	rec := trace.New(nil, 0)
	rec.BindClock(clock)
	b := NewBuilder(reg)
	rec.SetNamedSink("profile", b.Consume)
	return rec, clock, reg, b
}

func TestBuilderFoldsNestedSpans(t *testing.T) {
	rec, clock, reg, b := rig(t)
	acts := reg.Counter("dram_activations_total", "")

	campaign := rec.StartSpan("campaign")
	clock.Advance(10 * time.Second) // campaign self
	attempt := campaign.StartChild("attempt")
	clock.Advance(5 * time.Second) // attempt self
	steer := attempt.StartChild("steer")
	acts.Add(1000)
	clock.Advance(30 * time.Second)
	steer.End()
	acts.Add(50) // attempt self activations
	clock.Advance(5 * time.Second)
	attempt.End()
	campaign.End()

	p := b.Snapshot()
	if p.OpenSpans != 0 {
		t.Errorf("open spans = %d", p.OpenSpans)
	}
	wantPaths := []string{"campaign", "campaign;attempt", "campaign;attempt;steer"}
	if len(p.Entries) != len(wantPaths) {
		t.Fatalf("entries = %+v", p.Entries)
	}
	for i, want := range wantPaths {
		if p.Entries[i].Path != want {
			t.Errorf("entry %d path = %q, want %q", i, p.Entries[i].Path, want)
		}
	}
	check := func(path string, incl, self float64, inclActs, selfActs int64) {
		t.Helper()
		e, ok := p.Lookup(path)
		if !ok {
			t.Fatalf("no entry at %q", path)
		}
		if e.SimSeconds != incl || e.SelfSimSeconds != self {
			t.Errorf("%s: sim = %v/%v, want %v/%v", path, e.SimSeconds, e.SelfSimSeconds, incl, self)
		}
		if e.Activations != inclActs || e.SelfActivations != selfActs {
			t.Errorf("%s: acts = %d/%d, want %d/%d", path, e.Activations, e.SelfActivations, inclActs, selfActs)
		}
	}
	check("campaign", 50, 10, 1050, 0)
	check("campaign;attempt", 40, 10, 1050, 50)
	check("campaign;attempt;steer", 30, 30, 1000, 1000)

	if got := p.TotalSimSeconds(); got != 50 {
		t.Errorf("TotalSimSeconds = %v", got)
	}
	if got := p.TotalActivations(); got != 1050 {
		t.Errorf("TotalActivations = %v", got)
	}
}

func TestBuilderAggregatesSiblingSpans(t *testing.T) {
	rec, clock, _, b := rig(t)
	root := rec.StartSpan("campaign")
	for i := 0; i < 3; i++ {
		a := root.StartChild("attempt")
		clock.Advance(time.Minute)
		a.End()
	}
	root.End()
	p := b.Snapshot()
	e, ok := p.Lookup("campaign;attempt")
	if !ok || e.Count != 3 || e.SimSeconds != 180 {
		t.Errorf("aggregated attempt entry = %+v (ok=%v)", e, ok)
	}
}

func TestBuilderSubsystemCensus(t *testing.T) {
	rec, _, _, b := rig(t)
	rec.Emit("virtio.unplug", "gpa", 1)
	rec.Emit("virtio.plug", "gpa", 2)
	rec.Emit("ept.split")
	p := b.Snapshot()
	got := map[string]int64{}
	for _, s := range p.Subsystems {
		got[s.Name] = s.Events
	}
	if got["virtio"] != 2 || got["ept"] != 1 {
		t.Errorf("subsystems = %+v", p.Subsystems)
	}
}

func TestFoldedDeterministicAcrossIdenticalRuns(t *testing.T) {
	run := func() string {
		rec, clock, reg, b := rig(t)
		acts := reg.Counter("dram_activations_total", "")
		root := rec.StartSpan("campaign")
		for i := 0; i < 5; i++ {
			a := root.StartChild("attempt")
			s := a.StartChild("steer")
			acts.Add(uint64(100 * (i + 1)))
			clock.Advance(time.Duration(i+1) * time.Second)
			s.End()
			a.End()
		}
		root.End()
		return b.Snapshot().Folded()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("folded output not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestBuilderToleratesUnmatchedAndNil(t *testing.T) {
	var b *Builder
	b.Consume(trace.Event{Kind: "span.end"}) // nil receiver no-ops
	if p := b.Snapshot(); len(p.Entries) != 0 {
		t.Errorf("nil builder snapshot = %+v", p)
	}
	live := NewBuilder(nil)
	live.Consume(trace.Event{Kind: "span.end", Data: map[string]any{"span": uint64(7)}})
	p := live.Snapshot()
	if p.UnmatchedEnds != 1 {
		t.Errorf("unmatched ends = %d", p.UnmatchedEnds)
	}
}

// TestWritePprofDecodes hand-decodes the gzipped protobuf and checks
// the pieces a pprof reader needs: four sample types, one sample per
// entry, and every span name in the string table.
func TestWritePprofDecodes(t *testing.T) {
	rec, clock, _, b := rig(t)
	root := rec.StartSpan("attack.campaign")
	st := root.StartChild("attack.steer")
	clock.Advance(42 * time.Second)
	st.End()
	root.End()

	var buf bytes.Buffer
	if err := b.Snapshot().WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}

	var strs []string
	sampleTypes, samples, locations, functions := 0, 0, 0, 0
	for off := 0; off < len(raw); {
		key, n := uvarint(t, raw, off)
		off += n
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			_, n := uvarint(t, raw, off)
			off += n
		case 2:
			length, n := uvarint(t, raw, off)
			off += n
			body := raw[off : off+int(length)]
			off += int(length)
			switch field {
			case fldSampleType:
				sampleTypes++
			case fldSample:
				samples++
			case fldLocation:
				locations++
			case fldFunction:
				functions++
			case fldStringTable:
				strs = append(strs, string(body))
			}
		default:
			t.Fatalf("unexpected wire type %d at offset %d", wire, off)
		}
	}
	if sampleTypes != 4 {
		t.Errorf("sample types = %d", sampleTypes)
	}
	if samples != 2 || locations != 2 || functions != 2 {
		t.Errorf("samples/locations/functions = %d/%d/%d", samples, locations, functions)
	}
	joined := strings.Join(strs, "\n")
	for _, want := range []string{"sim_time", "nanoseconds", "dram_activations", "attack.campaign", "attack.steer"} {
		if !strings.Contains(joined, want) {
			t.Errorf("string table missing %q:\n%s", want, joined)
		}
	}
}

func uvarint(t *testing.T, b []byte, off int) (uint64, int) {
	t.Helper()
	var v uint64
	for i := 0; ; i++ {
		if off+i >= len(b) {
			t.Fatal("truncated varint")
		}
		c := b[off+i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
}
