package obs

import (
	"sort"
	"strings"
	"sync"

	"hyperhammer/internal/metrics"
)

// Point is one sampled value of a series.
type Point struct {
	// SimSeconds is the accumulated simulated time at the sample. When
	// several hosts share one plane (hh tables), each host's clock
	// folds into the registry's accumulated base at rebind, so
	// SimSeconds is monotonic across hosts; Sample counts samples.
	SimSeconds float64 `json:"t"`
	// Value is the series value at the sample.
	Value float64 `json:"v"`
	// Sample is the global sample number the point was taken in.
	Sample uint64 `json:"n"`
	// Unit, when set, names the scheduled experiment unit whose merge
	// produced the sample (parallel runs sample the shared registry
	// once per completed unit, tagged so a viewer can attribute steps
	// in a series to the unit that caused them).
	Unit string `json:"unit,omitempty"`
}

// SeriesData is one series' retained points, oldest first.
type SeriesData struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"` // alternating key/value
	Kind   string   `json:"kind"`
	Points []Point  `json:"points"`
}

// storedSeries is one series' ring buffer.
type storedSeries struct {
	name   string
	labels []string
	kind   string
	ring   []Point // fixed capacity once full
	next   int     // insertion index when the ring is full
	full   bool
}

func (ss *storedSeries) add(p Point) {
	if !ss.full {
		ss.ring = append(ss.ring, p)
		if len(ss.ring) >= seriesCap {
			ss.full = true
			ss.next = 0
		}
		return
	}
	ss.ring[ss.next] = p
	ss.next = (ss.next + 1) % len(ss.ring)
}

func (ss *storedSeries) points() []Point {
	if !ss.full {
		out := make([]Point, len(ss.ring))
		copy(out, ss.ring)
		return out
	}
	out := make([]Point, 0, len(ss.ring))
	out = append(out, ss.ring[ss.next:]...)
	out = append(out, ss.ring[:ss.next]...)
	return out
}

// Store retains a bounded time series per metric: every Record appends
// the current value of each counter and gauge (and each histogram's
// _count and _sum) to a per-series ring. All methods are safe for
// concurrent use and no-op on a nil receiver.
type Store struct {
	mu      sync.Mutex
	series  map[string]*storedSeries
	samples uint64
}

// seriesCap bounds each series' ring: enough resolution for a
// multi-day campaign timeline without unbounded growth.
const seriesCap = 720

// NewStore creates a store keeping at most seriesCap points per series.
func NewStore() *Store {
	return &Store{series: make(map[string]*storedSeries)}
}

// Record appends one point per series in the snapshot. Histograms
// contribute two derived series, name_count and name_sum.
func (s *Store) Record(snap metrics.Snapshot) {
	s.RecordTagged(snap, "")
}

// RecordTagged is Record with every appended point tagged as owned by
// the named scheduled unit (empty for untagged host-clock samples).
func (s *Store) RecordTagged(snap metrics.Snapshot, unit string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples++
	t := snap.SimSeconds
	for _, c := range snap.Counters {
		s.add(c.Name, c.Labels, "counter", t, c.Value, unit)
	}
	for _, g := range snap.Gauges {
		s.add(g.Name, g.Labels, "gauge", t, g.Value, unit)
	}
	for _, h := range snap.Histograms {
		s.add(h.Name+"_count", h.Labels, "histogram", t, float64(h.Count), unit)
		s.add(h.Name+"_sum", h.Labels, "histogram", t, h.Sum, unit)
	}
}

// add records one point under the store's lock.
func (s *Store) add(name string, labels []string, kind string, t, v float64, unit string) {
	key := name + "\xff" + strings.Join(labels, "\xfe")
	ss, ok := s.series[key]
	if !ok {
		ss = &storedSeries{name: name, labels: labels, kind: kind}
		s.series[key] = ss
	}
	ss.add(Point{SimSeconds: t, Value: v, Sample: s.samples, Unit: unit})
}

// Samples returns how many snapshots were recorded.
func (s *Store) Samples() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// Series returns the retained series, deterministically ordered by
// name then label signature. A non-empty name filters to that metric
// (histogram-derived series match their base name too, so
// name=foo returns foo_count and foo_sum for a histogram foo).
func (s *Store) Series(name string) []SeriesData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []SeriesData
	for _, ss := range s.series {
		if name != "" && ss.name != name &&
			ss.name != name+"_count" && ss.name != name+"_sum" {
			continue
		}
		out = append(out, SeriesData{
			Name:   ss.name,
			Labels: ss.labels,
			Kind:   ss.kind,
			Points: ss.points(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return strings.Join(out[i].Labels, ",") < strings.Join(out[j].Labels, ",")
	})
	return out
}
