package obs

import (
	"sync"
	"testing"
	"time"

	"hyperhammer/internal/metrics"
	"hyperhammer/internal/simtime"
)

func testSnapshot(reg *metrics.Registry) metrics.Snapshot { return reg.Snapshot() }

func TestStoreRecordsCountersGaugesHistograms(t *testing.T) {
	reg := metrics.New()
	clock := &simtime.Clock{}
	reg.BindClock(clock)
	c := reg.Counter("acts_total", "activations", "bank", "0")
	g := reg.Gauge("vms", "live VMs")
	h := reg.Histogram("lat_seconds", "latency", []float64{1, 10})

	s := NewStore()
	c.Add(5)
	g.Set(2)
	h.Observe(3)
	s.Record(testSnapshot(reg))
	clock.Advance(2 * time.Second)
	c.Add(7)
	s.Record(testSnapshot(reg))

	all := s.Series("")
	// acts_total, lat_seconds_count, lat_seconds_sum, vms
	if len(all) != 4 {
		t.Fatalf("series = %d: %+v", len(all), all)
	}
	acts := s.Series("acts_total")
	if len(acts) != 1 || len(acts[0].Points) != 2 {
		t.Fatalf("acts = %+v", acts)
	}
	p0, p1 := acts[0].Points[0], acts[0].Points[1]
	if p0.Value != 5 || p1.Value != 12 || p1.SimSeconds != 2 || p1.Sample != 2 {
		t.Errorf("points = %+v %+v", p0, p1)
	}
	if acts[0].Labels[0] != "bank" || acts[0].Kind != "counter" {
		t.Errorf("series meta = %+v", acts[0])
	}
	// Histogram filter by base name returns both derived series.
	lat := s.Series("lat_seconds")
	if len(lat) != 2 {
		t.Fatalf("lat = %+v", lat)
	}
	if lat[0].Name != "lat_seconds_count" || lat[0].Points[0].Value != 1 {
		t.Errorf("lat count = %+v", lat[0])
	}
	if lat[1].Name != "lat_seconds_sum" || lat[1].Points[0].Value != 3 {
		t.Errorf("lat sum = %+v", lat[1])
	}
}

func TestStoreRingEvictsOldest(t *testing.T) {
	reg := metrics.New()
	c := reg.Counter("n", "")
	s := NewStore()
	for i := 1; i <= seriesCap+2; i++ {
		c.Inc()
		s.Record(testSnapshot(reg))
	}
	got := s.Series("n")[0].Points
	if len(got) != seriesCap {
		t.Fatalf("points = %d, want %d", len(got), seriesCap)
	}
	first, last := got[0], got[seriesCap-1]
	if first.Value != 3 || last.Value != seriesCap+2 {
		t.Errorf("ring values %v..%v, want 3..%d (oldest evicted, order preserved)", first.Value, last.Value, seriesCap+2)
	}
	if first.Sample != 3 || last.Sample != seriesCap+2 {
		t.Errorf("sample numbers %d..%d, want 3..%d", first.Sample, last.Sample, seriesCap+2)
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	s.Record(metrics.Snapshot{})
	if s.Series("") != nil || s.Samples() != 0 {
		t.Error("nil store not inert")
	}
}

func TestStoreConcurrentRecordAndRead(t *testing.T) {
	reg := metrics.New()
	c := reg.Counter("n", "")
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc()
				s.Record(testSnapshot(reg))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			s.Series("")
			s.Samples()
		}
	}()
	wg.Wait()
	if s.Samples() != 800 {
		t.Errorf("samples = %d", s.Samples())
	}
}
