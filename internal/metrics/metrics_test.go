package metrics

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperhammer/internal/simtime"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestCounterAndGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", "Ops.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	g := r.Gauge("depth", "Depth.")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d", g.Value())
	}
}

// TestSum checks a counter family sums across its labeled series to
// the figure a Snapshot gives, and that a missing family, a non-counter
// family and the nil registry report false.
func TestSum(t *testing.T) {
	r := New()
	r.Counter("flips_total", "F.", "dir", "a").Add(3)
	r.Counter("flips_total", "F.", "dir", "b").Add(4)
	r.Counter("flips_total", "F.").Add(5)
	r.Gauge("depth", "D.").Set(2)
	r.Histogram("lat", "L.", nil).Observe(1)
	var want float64
	for _, c := range r.Snapshot().Counters {
		want += c.Value
	}
	if got, ok := r.Sum("flips_total"); !ok || got != want || got != 12 {
		t.Errorf("Sum(flips_total) = %g, %v; want 12 (snapshot %g), true", got, ok, want)
	}
	for _, name := range []string{"missing_total", "depth", "lat"} {
		if got, ok := r.Sum(name); ok || got != 0 {
			t.Errorf("Sum(%s) = %g, %v; want 0, false", name, got, ok)
		}
	}
	var nilReg *Registry
	if _, ok := nilReg.Sum("flips_total"); ok {
		t.Error("nil registry Sum reported a family")
	}
}

func TestSameSeriesSharesHandle(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "X.", "k", "v", "a", "b")
	b := r.Counter("x_total", "X.", "a", "b", "k", "v") // label order irrelevant
	if a != b {
		t.Fatal("same (name, labels) returned distinct handles")
	}
	c := r.Counter("x_total", "X.", "k", "other")
	if a == c {
		t.Fatal("different labels returned the same handle")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "M.")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("m", "M.")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "Latency.", []float64{1, 10, 100})
	// Prometheus semantics: v lands in the first bucket with v <= le.
	for _, v := range []float64{
		0.5,  // bucket le=1
		1,    // exactly on a bound: still le=1
		1.01, // le=10
		10,   // le=10
		100,  // le=100
		101,  // +Inf overflow
	} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	want := []struct {
		le  float64
		cum uint64
	}{{1, 2}, {10, 4}, {100, 5}}
	for i, w := range want {
		if hs.Buckets[i].UpperBound != w.le || hs.Buckets[i].Count != w.cum {
			t.Errorf("bucket %d = {%g %d}, want {%g %d}",
				i, hs.Buckets[i].UpperBound, hs.Buckets[i].Count, w.le, w.cum)
		}
	}
	if hs.Count != 6 {
		t.Errorf("count = %d (overflow lost?)", hs.Count)
	}
	if math.Abs(hs.Sum-213.51) > 1e-9 {
		t.Errorf("sum = %g", hs.Sum)
	}
	if h.Count() != 6 || math.Abs(h.Sum()-213.51) > 1e-9 {
		t.Errorf("handle accessors: count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("d", "D.", nil)
	h.ObserveDuration(90 * time.Second)
	hs := r.Snapshot().Histograms[0]
	if len(hs.Buckets) != len(DefBuckets) {
		t.Fatalf("buckets = %d, want %d", len(hs.Buckets), len(DefBuckets))
	}
}

func TestNilRegistryNoOpIsAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "X.")
	g := r.Gauge("y", "Y.")
	h := r.Histogram("z", "Z.", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(-1)
		h.Observe(0.5)
		h.ObserveDuration(time.Second)
	})
	if allocs != 0 {
		t.Errorf("nil no-op path allocates: %g allocs/op", allocs)
	}
	if r.SimTime() != 0 || c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil accessors not inert")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil snapshot not empty")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	clock := &simtime.Clock{}
	r.BindClock(clock)
	var wg sync.WaitGroup
	const workers = 8
	const each = 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Re-looking up the handle every iteration exercises
				// the registry lock alongside the instrument atomics.
				r.Counter("c_total", "C.").Inc()
				r.Gauge("g", "G.").Add(1)
				r.Histogram("h", "H.", []float64{1, 2}).Observe(float64(i % 3))
				if i%64 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c_total", "C.").Value(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
	if got := r.Histogram("h", "H.", nil).Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
}

// goldenRegistry builds the deterministic registry the exporter tests
// render.
func goldenRegistry() *Registry {
	r := New()
	clock := &simtime.Clock{}
	clock.Advance(90 * time.Second)
	r.BindClock(clock)
	r.Counter("dram_flips_total", "Bit flips committed to simulated DRAM.", "direction", "1->0").Add(12)
	r.Counter("dram_flips_total", "Bit flips committed to simulated DRAM.", "direction", "0->1").Add(3)
	r.Gauge("buddy_free_pages", "Pages on the buddy free lists.").Set(4096)
	h := r.Histogram("attack_phase_seconds", "Simulated wall time per phase.", []float64{60, 3600}, "phase", "steer")
	h.Observe(30)
	h.Observe(45)
	h.Observe(7200)
	// Label values (attacker/world-controlled) need escaping; metric
	// and label names are programmer-controlled identifiers.
	r.Counter("escape_total", "Help with \\ and\nnewline.", "path", "a\"b\\c\nd").Inc()
	return r
}

func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "export.prom"), buf.Bytes())
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "export.json"), buf.Bytes())
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestPromContainsRequiredPieces(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sim_seconds 90\n",
		`dram_flips_total{direction="1->0"} 12`,
		"# TYPE attack_phase_seconds histogram",
		`attack_phase_seconds_bucket{phase="steer",le="60"} 2`,
		`attack_phase_seconds_bucket{phase="steer",le="3600"} 2`,
		`attack_phase_seconds_bucket{phase="steer",le="+Inf"} 3`,
		`attack_phase_seconds_sum{phase="steer"} 7275`,
		`attack_phase_seconds_count{phase="steer"} 3`,
		"# HELP escape_total Help with \\\\ and\\nnewline.\n",
		`escape_total{path="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	a := goldenRegistry().Snapshot()
	b := goldenRegistry().Snapshot()
	var bufA, bufB bytes.Buffer
	if err := goldenRegistry().WriteProm(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := goldenRegistry().WriteProm(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("WriteProm not deterministic")
	}
	if len(a.Counters) != len(b.Counters) || a.Counters[0].Name != b.Counters[0].Name {
		t.Error("snapshot ordering unstable")
	}
}

func TestSnapshotRows(t *testing.T) {
	rows := goldenRegistry().Snapshot().Rows()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	var found bool
	for _, row := range rows {
		if row[0] == "dram_flips_total" && row[1] == "direction=1->0" {
			found = true
			if row[2] != "counter" || row[3] != "12" {
				t.Errorf("row = %v", row)
			}
		}
	}
	if !found {
		t.Error("labelled counter row missing")
	}
}
