package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hyperhammer/internal/report"
	"hyperhammer/internal/trace"
)

// SpanNode is one reconstructed span in a recorded trace.
type SpanNode struct {
	ID     uint64
	Parent uint64
	Name   string
	// StartSeconds is the simulated start time; Seconds the simulated
	// duration from the span.end event (0 while unmatched).
	StartSeconds float64
	Seconds      float64
	// Ended reports whether a matching span.end was found.
	Ended    bool
	Children []*SpanNode
}

// Inspection is the offline analysis of one recorded trace file, the
// engine behind the hh inspect command.
type Inspection struct {
	// Events is the number of well-formed events read.
	Events int
	// Kinds counts events per kind.
	Kinds map[string]int
	// Roots are the top-level spans in start order.
	Roots []*SpanNode
	// LastSimSeconds is the largest simulated timestamp seen.
	LastSimSeconds float64

	// Anomaly counters.
	// MalformedLines are lines that failed to parse as events.
	MalformedLines int
	// SeqGaps counts missing sequence numbers — events the recorder
	// assigned but that never reached the file (lost tail, truncation,
	// or encode errors).
	SeqGaps int
	// UnmatchedStarts are spans that never ended (crash or missing
	// End); UnmatchedEnds are span.end events whose start was never
	// seen (e.g. a trace cut mid-file).
	UnmatchedStarts int
	UnmatchedEnds   int
	// Orphans are spans whose parent ID never appeared; they are
	// promoted to roots for rendering.
	Orphans int
}

// Inspect reads a JSONL trace (as written by trace.Recorder) and
// reconstructs its span forest, kind census, and anomaly counts.
func Inspect(r io.Reader) (*Inspection, error) {
	in := &Inspection{Kinds: make(map[string]int)}
	spans := make(map[uint64]*SpanNode)
	var order []uint64 // span IDs in start order
	prevSeq := uint64(0)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			in.MalformedLines++
			continue
		}
		in.Events++
		in.Kinds[ev.Kind]++
		if prevSeq != 0 && ev.Seq > prevSeq+1 {
			in.SeqGaps += int(ev.Seq - prevSeq - 1)
		}
		prevSeq = ev.Seq
		sim := simSeconds(ev)
		if sim > in.LastSimSeconds {
			in.LastSimSeconds = sim
		}
		switch ev.Kind {
		case "span.start":
			id, parent, name := ev.Span()
			if id == 0 {
				in.MalformedLines++
				continue
			}
			spans[id] = &SpanNode{ID: id, Parent: parent, Name: name, StartSeconds: sim}
			order = append(order, id)
		case "span.end":
			id, _, _ := ev.Span()
			n, ok := spans[id]
			if !ok {
				in.UnmatchedEnds++
				continue
			}
			n.Ended = true
			if sec, ok := ev.Data["seconds"].(float64); ok {
				n.Seconds = sec
			} else {
				n.Seconds = sim - n.StartSeconds
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}

	for _, id := range order {
		n := spans[id]
		if !n.Ended {
			in.UnmatchedStarts++
		}
		if n.Parent == 0 {
			in.Roots = append(in.Roots, n)
			continue
		}
		p, ok := spans[n.Parent]
		if !ok {
			in.Orphans++
			in.Roots = append(in.Roots, n)
			continue
		}
		p.Children = append(p.Children, n)
	}
	return in, nil
}

// WriteSpanTree renders the span forest with per-span simulated
// durations, plus an aggregate per-name summary (count, total, mean).
func (in *Inspection) WriteSpanTree(w io.Writer) {
	if len(in.Roots) == 0 {
		fmt.Fprintln(w, "no spans recorded")
		return
	}
	fmt.Fprintln(w, "span tree (simulated time):")
	var walk func(n *SpanNode, prefix string, last bool)
	walk = func(n *SpanNode, prefix string, last bool) {
		connector := "├─ "
		childPrefix := prefix + "│  "
		if last {
			connector = "└─ "
			childPrefix = prefix + "   "
		}
		dur := report.FormatDuration(time.Duration(n.Seconds * float64(time.Second)))
		state := ""
		if !n.Ended {
			dur = "?"
			state = "  [never ended]"
		}
		fmt.Fprintf(w, "%s%s%s  %s  (start %s)%s\n",
			prefix, connector, n.Name, dur,
			report.FormatDuration(time.Duration(n.StartSeconds*float64(time.Second))), state)
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1)
		}
	}
	for i, root := range in.Roots {
		walk(root, "", i == len(in.Roots)-1)
	}

	// Aggregate: where does simulated time go, by span name.
	type agg struct {
		n     int
		total float64
	}
	byName := make(map[string]*agg)
	var collect func(n *SpanNode)
	collect = func(n *SpanNode) {
		a, ok := byName[n.Name]
		if !ok {
			a = &agg{}
			byName[n.Name] = a
		}
		if n.Ended {
			a.n++
			a.total += n.Seconds
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	for _, root := range in.Roots {
		collect(root)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].total > byName[names[j]].total })
	t := report.NewTable("\nper-phase totals", "span", "count", "total sim", "mean sim")
	for _, name := range names {
		a := byName[name]
		if a.n == 0 {
			t.AddRow(name, 0, "-", "-")
			continue
		}
		t.AddRow(name, a.n,
			time.Duration(a.total*float64(time.Second)),
			time.Duration(a.total/float64(a.n)*float64(time.Second)))
	}
	fmt.Fprint(w, t.String())
}

// WriteKinds renders the per-kind event census, most frequent first.
func (in *Inspection) WriteKinds(w io.Writer) {
	kinds := make([]string, 0, len(in.Kinds))
	for k := range in.Kinds {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if in.Kinds[kinds[i]] != in.Kinds[kinds[j]] {
			return in.Kinds[kinds[i]] > in.Kinds[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	t := report.NewTable("event kinds", "kind", "count")
	for _, k := range kinds {
		t.AddRow(k, in.Kinds[k])
	}
	fmt.Fprint(w, t.String())
}

// WriteTimeline renders top-level spans as bars over simulated
// campaign time, width characters wide.
func (in *Inspection) WriteTimeline(w io.Writer, width int) {
	if width < 20 {
		width = 60
	}
	if len(in.Roots) == 0 || in.LastSimSeconds <= 0 {
		fmt.Fprintln(w, "no timeline (no spans or zero simulated time)")
		return
	}
	fmt.Fprintf(w, "phase timeline over %s simulated:\n",
		report.FormatDuration(time.Duration(in.LastSimSeconds*float64(time.Second))))
	for _, n := range in.Roots {
		end := n.StartSeconds + n.Seconds
		if !n.Ended {
			end = in.LastSimSeconds
		}
		from := int(n.StartSeconds / in.LastSimSeconds * float64(width))
		to := int(end / in.LastSimSeconds * float64(width))
		if to <= from {
			to = from + 1
		}
		if to > width {
			to = width
		}
		bar := strings.Repeat(" ", from) + strings.Repeat("█", to-from) +
			strings.Repeat(" ", width-to)
		mark := ""
		if !n.Ended {
			mark = " (open)"
		}
		fmt.Fprintf(w, "|%s| %s%s\n", bar, n.Name, mark)
	}
}

// WriteAnomalies renders what the trace says went wrong — dropped
// events, unmatched spans, malformed lines — or "none".
func (in *Inspection) WriteAnomalies(w io.Writer) {
	fmt.Fprintln(w, "anomalies:")
	any := false
	line := func(n int, format string) {
		if n > 0 {
			any = true
			fmt.Fprintf(w, "  "+format+"\n", n)
		}
	}
	line(in.SeqGaps, "%d events missing from the file (seq gaps: lost tail or encode errors)")
	line(in.UnmatchedStarts, "%d spans never ended (crash before End, or truncated trace)")
	line(in.UnmatchedEnds, "%d span.end events without a matching start")
	line(in.Orphans, "%d spans reference a parent that never appeared (promoted to roots)")
	line(in.MalformedLines, "%d malformed lines")
	if !any {
		fmt.Fprintln(w, "  none")
	}
}
