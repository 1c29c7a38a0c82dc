// Package metrics is the simulation's measurement substrate: a small
// dependency-free registry of counters, gauges, and fixed-bucket
// histograms, exported in Prometheus text format or as a JSON
// snapshot.
//
// Two properties matter more here than in a typical metrics library:
//
//   - Rates are per *simulated* second. The registry can be bound to a
//     simtime.Clock and every export carries the simulated timestamp,
//     so flips-per-refresh-window or activations-per-second are
//     meaningful even though the simulation runs many orders of
//     magnitude faster than the hardware it models.
//
//   - The nil registry is a first-class no-op. A nil *Registry hands
//     out nil instrument handles, and every method on a nil handle is
//     an allocation-free no-op, so instrumented code never guards.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperhammer/internal/simtime"
)

// Counter is a monotonically increasing value. The zero Counter and
// the nil Counter are both usable; nil no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets with Prometheus
// semantics: an observation v lands in the first bucket whose upper
// bound satisfies v <= le, and every bucket is cumulative on export.
type Histogram struct {
	mu     sync.Mutex
	uppers []float64 // ascending; +Inf bucket is implicit
	counts []uint64  // len(uppers)+1; last is the overflow bucket
	sum    float64
	n      uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v, i.e. v <= upper
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// kind discriminates instrument families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) instrument instance.
type series struct {
	labels []string // sorted key/value pairs, flattened
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64
	series  map[string]*series
}

// Registry owns instrument families and hands out handles. All methods
// are safe for concurrent use, and all are no-ops on a nil receiver.
type Registry struct {
	mu    sync.Mutex
	clock *simtime.Clock
	// simBase accumulates the readings of previously bound clocks, so
	// a registry that outlives several hosts reports the total
	// simulated time spent across all of them rather than only the
	// most recent host's clock (the old last-boot-wins hazard).
	simBase  time.Duration
	families map[string]*family
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// BindClock attaches the simulated clock whose reading stamps every
// export. Binding is explicitly scoped: rebinding first folds the
// outgoing clock's final reading into an accumulated base, so
// experiments that boot several hosts against one registry report the
// total simulated time across all of them instead of only the most
// recent host's clock. Rebinding the same live clock therefore counts
// its elapsed time twice — bind each host's clock exactly once.
func (r *Registry) BindClock(c *simtime.Clock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.clock != nil {
		r.simBase += r.clock.Now()
	}
	r.clock = c
	r.mu.Unlock()
}

// AddSimTime folds d into the registry's accumulated simulated-time
// base. Scoped-unit merging uses it to credit a completed unit's
// simulated time to the parent registry without binding a clock.
func (r *Registry) AddSimTime(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.simBase += d
	r.mu.Unlock()
}

// SimTime returns the accumulated simulated time: the base from
// previously bound clocks (and AddSimTime) plus the current clock's
// reading.
func (r *Registry) SimTime() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.clock == nil {
		return r.simBase
	}
	return r.simBase + r.clock.Now()
}

// labelKey flattens sorted pairs into a map key and returns the sorted
// pair slice.
func labelKey(labels []string) (string, []string) {
	if len(labels) == 0 {
		return "", nil
	}
	if len(labels)%2 != 0 {
		labels = append(labels[:len(labels):len(labels)], "(missing)")
	}
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	sorted := make([]string, 0, len(labels))
	for _, i := range idx {
		sorted = append(sorted, labels[2*i], labels[2*i+1])
	}
	var sb strings.Builder
	for i := 0; i < len(sorted); i += 2 {
		sb.WriteString(sorted[i])
		sb.WriteByte(0xff)
		sb.WriteString(sorted[i+1])
		sb.WriteByte(0xfe)
	}
	return sb.String(), sorted
}

// lookup finds or creates the series for (name, labels) under k.
func (r *Registry) lookup(name, help string, k kind, buckets []float64, labels []string) *series {
	key, sorted := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, k))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: sorted}
		switch k {
		case kindCounter:
			s.c = new(Counter)
		case kindGauge:
			s.g = new(Gauge)
		case kindHistogram:
			s.h = &Histogram{uppers: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for name with the given alternating
// label key/value pairs, creating it on first use. The same
// (name, labels) always yields the same handle, so independent
// subsystems can share a series.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge returns the gauge for name and labels, creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// Histogram returns the histogram for name and labels, creating it on
// first use with the given ascending upper bounds (an implicit +Inf
// bucket is always appended). Buckets are fixed per family: the first
// registration wins.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return r.lookup(name, help, kindHistogram, buckets, labels).h
}

// DefBuckets is the default histogram layout: sub-second through
// multi-day, matching the simulation's range from row activations to
// multi-week campaigns.
var DefBuckets = []float64{
	0.001, 0.01, 0.1, 1, 10, 60, 300, 1800, 3600,
	6 * 3600, 24 * 3600, 3 * 24 * 3600, 7 * 24 * 3600,
}

// --- Snapshots ---

// Sample is one exported series value.
type Sample struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"` // alternating key/value
	Value  float64  `json:"value"`
}

// BucketSample is one cumulative histogram bucket.
type BucketSample struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSample is one exported histogram series.
type HistogramSample struct {
	Name    string         `json:"name"`
	Labels  []string       `json:"labels,omitempty"`
	Buckets []BucketSample `json:"buckets"` // cumulative, excludes +Inf (== Count)
	Sum     float64        `json:"sum"`
	Count   uint64         `json:"count"`
}

// Snapshot is a point-in-time copy of every series, ordered
// deterministically (by name, then label signature).
type Snapshot struct {
	// SimSeconds is the bound simulated clock's reading at export.
	SimSeconds float64           `json:"simSeconds"`
	Counters   []Sample          `json:"counters,omitempty"`
	Gauges     []Sample          `json:"gauges,omitempty"`
	Histograms []HistogramSample `json:"histograms,omitempty"`
	// Help maps metric name to its help string.
	Help map[string]string `json:"help,omitempty"`
}

// Snapshot copies the current state of every series. The registry
// stays locked for the whole walk: the live observability plane
// snapshots concurrently with series creation, and a family's series
// map must not grow mid-iteration.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Help: make(map[string]string)}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	simNow := r.simBase
	if r.clock != nil {
		simNow += r.clock.Now()
	}
	snap.SimSeconds = simNow.Seconds()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		snap.Help[f.name] = f.help
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case kindCounter:
				snap.Counters = append(snap.Counters, Sample{Name: f.name, Labels: s.labels, Value: float64(s.c.Value())})
			case kindGauge:
				snap.Gauges = append(snap.Gauges, Sample{Name: f.name, Labels: s.labels, Value: float64(s.g.Value())})
			case kindHistogram:
				snap.Histograms = append(snap.Histograms, sampleHistogram(f.name, s))
			}
		}
	}
	return snap
}

// Sum returns the total of a counter family across all its series,
// and false when no counter family of that name is registered. Counts
// are integers, so the float sum is exact in any order below 2^53 and
// equals the sum over a sorted Snapshot.
func (r *Registry) Sum(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != kindCounter {
		return 0, false
	}
	var sum float64
	for _, s := range f.series {
		sum += float64(s.c.Value())
	}
	return sum, true
}

// IsHostMetric reports whether a metric family measures the *host*
// (scheduler telemetry: the sched_* families) rather than the
// simulation. Host metrics are real wall-clock observations — they
// differ run to run and across -parallel settings — so they are
// served live (/metrics, Prometheus) but stripped from run artifacts'
// deterministic metrics sections (see Snapshot.StripHost).
func IsHostMetric(name string) bool {
	return strings.HasPrefix(name, "sched_")
}

// StripHost returns a copy of the snapshot with every host metric
// family removed (Help entries included). Artifact builders call this
// so the metrics section stays byte-identical at any -parallel; the
// host view lives in the artifact's plan section instead.
func (s Snapshot) StripHost() Snapshot {
	out := Snapshot{SimSeconds: s.SimSeconds}
	for _, c := range s.Counters {
		if !IsHostMetric(c.Name) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if !IsHostMetric(g.Name) {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if !IsHostMetric(h.Name) {
			out.Histograms = append(out.Histograms, h)
		}
	}
	if s.Help != nil {
		out.Help = make(map[string]string, len(s.Help))
		for name, help := range s.Help {
			if !IsHostMetric(name) {
				out.Help[name] = help
			}
		}
	}
	return out
}

// Rows flattens the snapshot into (name, labels, kind, value) rows for
// tabular rendering (it satisfies report.MetricsSnapshot without this
// package importing report). Histograms are summarized as count/sum.
func (s Snapshot) Rows() [][4]string {
	var out [][4]string
	labelStr := func(labels []string) string {
		if len(labels) == 0 {
			return "-"
		}
		var parts []string
		for i := 0; i+1 < len(labels); i += 2 {
			parts = append(parts, labels[i]+"="+labels[i+1])
		}
		return strings.Join(parts, ",")
	}
	for _, c := range s.Counters {
		out = append(out, [4]string{c.Name, labelStr(c.Labels), "counter", formatFloat(c.Value)})
	}
	for _, g := range s.Gauges {
		out = append(out, [4]string{g.Name, labelStr(g.Labels), "gauge", formatFloat(g.Value)})
	}
	for _, h := range s.Histograms {
		out = append(out, [4]string{h.Name, labelStr(h.Labels), "histogram",
			fmt.Sprintf("count=%d sum=%s", h.Count, formatFloat(h.Sum))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func sampleHistogram(name string, s *series) HistogramSample {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	out := HistogramSample{Name: name, Labels: s.labels, Sum: h.sum, Count: h.n}
	cum := uint64(0)
	for i, up := range h.uppers {
		cum += h.counts[i]
		out.Buckets = append(out.Buckets, BucketSample{UpperBound: up, Count: cum})
	}
	return out
}

// Absorb folds a snapshot — typically taken from a scoped per-unit
// registry that started empty — into this registry: counter values are
// added, gauge values replace the current reading (last absorb wins,
// so callers absorbing in a fixed unit order get deterministic
// gauges), histogram buckets are de-cumulated and added bucket by
// bucket, and the snapshot's simulated time is credited via
// AddSimTime. Families absent from this registry are created in the
// snapshot's (sorted) order, so absorbing the same snapshots in the
// same order always yields the same registry state.
func (r *Registry) Absorb(snap Snapshot) {
	if r == nil {
		return
	}
	for _, c := range snap.Counters {
		r.Counter(c.Name, snap.Help[c.Name], c.Labels...).Add(uint64(c.Value))
	}
	for _, g := range snap.Gauges {
		r.Gauge(g.Name, snap.Help[g.Name], g.Labels...).Set(int64(g.Value))
	}
	for _, hs := range snap.Histograms {
		uppers := make([]float64, len(hs.Buckets))
		for i, b := range hs.Buckets {
			uppers[i] = b.UpperBound
		}
		r.Histogram(hs.Name, snap.Help[hs.Name], uppers, hs.Labels...).absorb(hs)
	}
	r.AddSimTime(time.Duration(math.Round(snap.SimSeconds * float64(time.Second))))
}

// absorb adds a sampled histogram's observations into h, de-cumulating
// the exported buckets. Counts land in the first local bucket whose
// upper bound is >= the sample bucket's bound (identical layouts map
// one to one); observations beyond the last exported bucket go to the
// overflow bucket.
func (h *Histogram) absorb(s HistogramSample) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	prev := uint64(0)
	for _, b := range s.Buckets {
		d := b.Count - prev
		prev = b.Count
		if d == 0 {
			continue
		}
		h.counts[sort.SearchFloat64s(h.uppers, b.UpperBound)] += d
	}
	if s.Count > prev {
		h.counts[len(h.uppers)] += s.Count - prev
	}
	h.sum += s.Sum
	h.n += s.Count
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteProm writes every series in the Prometheus text exposition
// format, deterministically ordered.
func (r *Registry) WriteProm(w io.Writer) error {
	snap := r.Snapshot()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# HELP sim_seconds Simulated clock reading at export time.\n")
	fmt.Fprintf(&sb, "# TYPE sim_seconds gauge\n")
	fmt.Fprintf(&sb, "sim_seconds %s\n", formatFloat(snap.SimSeconds))

	type familyOut struct {
		name, typ string
		lines     []string
	}
	fams := make(map[string]*familyOut)
	order := []string{}
	add := func(name, typ, line string) {
		f, ok := fams[name]
		if !ok {
			f = &familyOut{name: name, typ: typ}
			fams[name] = f
			order = append(order, name)
		}
		f.lines = append(f.lines, line)
	}
	for _, c := range snap.Counters {
		add(c.Name, "counter", fmt.Sprintf("%s%s %s", c.Name, promLabels(c.Labels), formatFloat(c.Value)))
	}
	for _, g := range snap.Gauges {
		add(g.Name, "gauge", fmt.Sprintf("%s%s %s", g.Name, promLabels(g.Labels), formatFloat(g.Value)))
	}
	for _, h := range snap.Histograms {
		for _, b := range h.Buckets {
			add(h.Name, "histogram", fmt.Sprintf("%s_bucket%s %d",
				h.Name, promLabels(append(append([]string{}, h.Labels...), "le", formatFloat(b.UpperBound))), b.Count))
		}
		add(h.Name, "histogram", fmt.Sprintf("%s_bucket%s %d",
			h.Name, promLabels(append(append([]string{}, h.Labels...), "le", "+Inf")), h.Count))
		add(h.Name, "histogram", fmt.Sprintf("%s_sum%s %s", h.Name, promLabels(h.Labels), formatFloat(h.Sum)))
		add(h.Name, "histogram", fmt.Sprintf("%s_count%s %d", h.Name, promLabels(h.Labels), h.Count))
	}
	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		if help := snap.Help[name]; help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", name, escapeHelp(help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", name, f.typ)
		for _, line := range f.lines {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// promLabels renders alternating key/value pairs as {k="v",...}.
func promLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
