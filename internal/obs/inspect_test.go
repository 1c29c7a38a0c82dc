package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperhammer/internal/simtime"
	"hyperhammer/internal/trace"
)

// recordedTrace produces a realistic trace file: a campaign span with
// two attempts, each with a steer child, plus plain events.
func recordedTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	clock := &simtime.Clock{}
	r := trace.New(&buf, 0)
	r.BindClock(clock)
	r.Emit("host.boot", "geometry", "test")
	camp := r.StartSpan("attack.campaign", "maxAttempts", 2)
	for i := 1; i <= 2; i++ {
		att := camp.StartChild("attack.attempt", "index", i)
		steer := att.StartChild("attack.steer")
		clock.Advance(3 * time.Minute)
		steer.End()
		clock.Advance(time.Minute)
		att.End("success", i == 2)
		r.Emit("dram.flip", "bit", 5)
	}
	camp.End()
	return &buf
}

func TestInspectReconstructsSpanForest(t *testing.T) {
	in, err := Inspect(recordedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	// host.boot, camp.start, 2×(att.start, steer.start, steer.end,
	// att.end, dram.flip), camp.end = 13.
	if in.Events != 13 {
		t.Errorf("events = %d, want 13", in.Events)
	}
	if len(in.Roots) != 1 || in.Roots[0].Name != "attack.campaign" {
		t.Fatalf("roots = %+v", in.Roots)
	}
	camp := in.Roots[0]
	if len(camp.Children) != 2 {
		t.Fatalf("campaign children = %d", len(camp.Children))
	}
	att := camp.Children[0]
	if att.Name != "attack.attempt" || len(att.Children) != 1 ||
		att.Children[0].Name != "attack.steer" {
		t.Errorf("attempt subtree = %+v", att)
	}
	if att.Children[0].Seconds != 180 {
		t.Errorf("steer seconds = %v", att.Children[0].Seconds)
	}
	if in.Kinds["dram.flip"] != 2 || in.Kinds["span.start"] != 5 {
		t.Errorf("kinds = %v", in.Kinds)
	}
	if in.UnmatchedStarts != 0 || in.UnmatchedEnds != 0 || in.SeqGaps != 0 {
		t.Errorf("clean trace reported anomalies: %+v", in)
	}
}

// TestInspectConcurrentEmitterAttribution proves the end-to-end fix
// for the mis-parenting bug: spans from concurrent goroutines come out
// of the file attributed to their true parents.
func TestInspectConcurrentEmitterAttribution(t *testing.T) {
	var buf bytes.Buffer
	r := trace.New(&buf, 0)
	var wg sync.WaitGroup
	const workers = 6
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			root := r.StartSpan("worker", "w", w)
			for i := 0; i < 5; i++ {
				c := root.StartChild("step", "w", w)
				c.End()
			}
			root.End()
		}(w)
	}
	wg.Wait()
	in, err := Inspect(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Roots) != workers {
		t.Fatalf("roots = %d, want %d", len(in.Roots), workers)
	}
	for _, root := range in.Roots {
		if root.Name != "worker" || len(root.Children) != 5 {
			t.Fatalf("root %q has %d children, want worker/5", root.Name, len(root.Children))
		}
		for _, c := range root.Children {
			if c.Name != "step" || c.Parent != root.ID {
				t.Fatalf("child %+v misattributed under %d", c, root.ID)
			}
		}
	}
	if in.Orphans != 0 || in.UnmatchedStarts != 0 {
		t.Errorf("anomalies in clean concurrent trace: %+v", in)
	}
}

func TestInspectDetectsAnomalies(t *testing.T) {
	var buf bytes.Buffer
	clock := &simtime.Clock{}
	r := trace.New(&buf, 0)
	r.BindClock(clock)
	r.Emit("a")
	open := r.StartSpan("never.ends")
	_ = open // crash before End
	r.Emit("b")

	// Simulate a lost middle: drop the third line, append garbage and
	// an end for an unknown span.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mangled := lines[0] + "\n" + lines[1] + "\n" +
		"not json\n" +
		`{"seq":9,"simTime":"0s","kind":"span.end","data":{"span":777,"name":"ghost","seconds":1}}` + "\n"

	in, err := Inspect(strings.NewReader(mangled))
	if err != nil {
		t.Fatal(err)
	}
	if in.UnmatchedStarts != 1 {
		t.Errorf("unmatched starts = %d", in.UnmatchedStarts)
	}
	if in.UnmatchedEnds != 1 {
		t.Errorf("unmatched ends = %d", in.UnmatchedEnds)
	}
	if in.MalformedLines != 1 {
		t.Errorf("malformed = %d", in.MalformedLines)
	}
	if in.SeqGaps != 6 { // seq 2 → 9 skips 3..8
		t.Errorf("seq gaps = %d", in.SeqGaps)
	}
	var out bytes.Buffer
	in.WriteAnomalies(&out)
	for _, want := range []string{"never ended", "without a matching start", "malformed", "seq gaps"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("anomaly report missing %q:\n%s", want, out.String())
		}
	}
}

func TestInspectRenderings(t *testing.T) {
	in, err := Inspect(recordedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	var tree bytes.Buffer
	in.WriteSpanTree(&tree)
	s := tree.String()
	for _, want := range []string{"attack.campaign", "├─", "└─", "attack.steer", "per-phase totals"} {
		if !strings.Contains(s, want) {
			t.Errorf("span tree missing %q:\n%s", want, s)
		}
	}
	var kinds bytes.Buffer
	in.WriteKinds(&kinds)
	if !strings.Contains(kinds.String(), "span.start") ||
		!strings.Contains(kinds.String(), "dram.flip") {
		t.Errorf("kinds table:\n%s", kinds.String())
	}
	var tl bytes.Buffer
	in.WriteTimeline(&tl)
	if !strings.Contains(tl.String(), "attack.campaign") ||
		!strings.Contains(tl.String(), "█") {
		t.Errorf("timeline:\n%s", tl.String())
	}
	var anom bytes.Buffer
	in.WriteAnomalies(&anom)
	if !strings.Contains(anom.String(), "none") {
		t.Errorf("clean trace anomalies:\n%s", anom.String())
	}
}

func TestInspectEmptyInput(t *testing.T) {
	in, err := Inspect(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if in.Events != 0 || len(in.Roots) != 0 {
		t.Errorf("empty inspection = %+v", in)
	}
	var out bytes.Buffer
	in.WriteSpanTree(&out)
	in.WriteTimeline(&out)
	in.WriteKinds(&out)
	in.WriteAnomalies(&out) // none of these may panic
}
