package obs

import (
	"testing"
	"time"

	"hyperhammer/internal/metrics"
	"hyperhammer/internal/scope"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/trace"
)

func TestPlaneSamplesOnSimInterval(t *testing.T) {
	reg := metrics.New()
	clock := &simtime.Clock{}
	reg.BindClock(clock)
	acts := reg.Counter("dram_activations_total", "activations")

	p := NewPlane(scope.Scope{Metrics: reg})
	sub := p.Bus().Subscribe(64)
	defer sub.Cancel()
	p.BindClock(clock) // immediate t=0 sample

	acts.Add(100)
	clock.Advance(1500 * time.Millisecond) // crosses 1s → sample
	acts.Add(50)
	clock.Advance(200 * time.Millisecond) // no boundary
	clock.Advance(400 * time.Millisecond) // crosses 2s → sample

	series := p.Store().Series("dram_activations_total")
	if len(series) != 1 {
		t.Fatalf("series = %+v", series)
	}
	pts := series[0].Points
	if len(pts) != 3 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].Value != 0 || pts[1].Value != 100 || pts[2].Value != 150 {
		t.Errorf("values = %+v", pts)
	}
	if pts[1].SimSeconds != 1.5 || pts[2].SimSeconds != 2.1 {
		t.Errorf("stamps = %+v", pts)
	}
	// Each sample was announced on the bus.
	n := 0
	for len(sub.Events()) > 0 {
		ev := <-sub.Events()
		if ev.Kind == "obs.sample" {
			n++
		}
	}
	if n != 3 {
		t.Errorf("obs.sample events = %d, want 3", n)
	}
}

// TestPlaneTapTracePublishes: the plane taps its scope's recorder when
// it is made, under the named sink "obs", beside the recorder's other
// consumers.
func TestPlaneTapTracePublishes(t *testing.T) {
	clock := &simtime.Clock{}
	rec := trace.New(nil, 0)
	rec.BindClock(clock)
	profiled := 0
	rec.SetNamedSink("profile", func(trace.Event) { profiled++ })
	p := NewPlane(scope.Scope{Trace: rec})
	sub := p.Bus().Subscribe(16)
	defer sub.Cancel()

	clock.Advance(90 * time.Second)
	rec.Emit("vm.create", "memBytes", 42)
	span := rec.StartSpan("phase")
	span.End()

	ev := <-sub.Events()
	if ev.Kind != "vm.create" || ev.SimSeconds != 90 {
		t.Errorf("event = %+v", ev)
	}
	if ev.Data["memBytes"] != 42 {
		t.Errorf("data = %+v", ev.Data)
	}
	start := <-sub.Events()
	end := <-sub.Events()
	if start.Kind != "span.start" || end.Kind != "span.end" {
		t.Errorf("span events = %+v %+v", start, end)
	}
	if profiled != 3 {
		t.Errorf("the other sink saw %d events, want 3", profiled)
	}
}

func TestPlaneRebindAcrossHosts(t *testing.T) {
	// A plane bound to several hosts' clocks gives each its own
	// sampler, and the series keep growing.
	reg := metrics.New()
	c := reg.Counter("n", "")
	p := NewPlane(scope.Scope{Metrics: reg})

	c1 := &simtime.Clock{}
	reg.BindClock(c1)
	p.BindClock(c1)
	c.Inc()
	c1.Advance(time.Second)

	c2 := &simtime.Clock{}
	reg.BindClock(c2)
	p.BindClock(c2)
	c.Inc()
	c2.Advance(time.Second)

	pts := p.Store().Series("n")[0].Points
	if len(pts) != 4 { // 2 binds × (immediate + 1 tick)
		t.Fatalf("points = %+v", pts)
	}
	last := pts[len(pts)-1]
	// Clock binding accumulates across hosts: after two hosts of 1
	// simulated second each, sim time reads 2s, not the second host's
	// 1s (the old last-boot-wins misattribution).
	if last.Value != 2 || last.SimSeconds != 2 {
		t.Errorf("last = %+v", last)
	}
	if last.Sample != 4 {
		t.Errorf("sample counter = %+v (should be globally monotonic)", last)
	}
}

func TestNilPlaneIsSafe(t *testing.T) {
	var p *Plane
	p.BindClock(&simtime.Clock{})
	p.SampleUnit("unit")
	if p.Bus() != nil || p.Store() != nil {
		t.Error("nil plane leaked components")
	}
	if _, err := p.Serve("127.0.0.1:0", Sources{}); err == nil {
		t.Error("nil plane served")
	}
}
