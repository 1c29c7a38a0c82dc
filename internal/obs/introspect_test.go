package obs

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/inspect"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/scope"
	"hyperhammer/internal/simtime"
)

// TestIntrospectionEndpointsWithoutInspector checks /api/heatmap,
// /api/census, and /api/alerts serve schema-valid empty JSON — arrays
// [] and never null — even when no inspector is attached, so dashboards
// and CI curls never trip over a bare run.
func TestIntrospectionEndpointsWithoutInspector(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for _, path := range []string{"/api/heatmap", "/api/census", "/api/alerts"} {
		code, body := get(t, srv, path)
		if code != 200 {
			t.Errorf("%s status = %d", path, code)
		}
		if strings.Contains(body, "null") {
			t.Errorf("%s serializes null: %s", path, body)
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Errorf("%s is not an object: %v", path, err)
		}
	}
}

// TestIntrospectionEndpointsWithInspector checks the endpoints reflect
// live inspector state: heat cells, the cached census, and fired
// alerts.
func TestIntrospectionEndpointsWithInspector(t *testing.T) {
	ins := inspect.New()
	srv, reg, _ := newServerOver(t, scope.Scope{Inspect: ins}, Sources{})
	ins.BindMachine(4, 1024)
	ins.SetMetrics(reg)
	ins.SetCensusFunc(func() inspect.Census { return inspect.Census{VMs: 2} })

	ins.RecordRowActivations(1, 512, 9000)
	ins.RecordFlip(1, 512)
	reg.Counter("dram_flips_total", "test").Add(10)
	ins.Evaluate(3 * time.Second)

	var heat inspect.HeatmapSnapshot
	_, body := get(t, srv, "/api/heatmap")
	if err := json.Unmarshal([]byte(body), &heat); err != nil {
		t.Fatal(err)
	}
	if heat.Banks != 4 || heat.TotalActivations != 9000 || heat.TotalFlips != 1 {
		t.Errorf("heatmap = banks=%d act=%d flips=%d", heat.Banks, heat.TotalActivations, heat.TotalFlips)
	}

	var census inspect.CensusSnapshot
	_, body = get(t, srv, "/api/census")
	if err := json.Unmarshal([]byte(body), &census); err != nil {
		t.Fatal(err)
	}
	if len(census.Censuses) != 1 || census.Censuses[0].Census.VMs != 2 {
		t.Errorf("census = %+v", census)
	}

	var alerts inspect.AlertsSnapshot
	_, body = get(t, srv, "/api/alerts")
	if err := json.Unmarshal([]byte(body), &alerts); err != nil {
		t.Fatal(err)
	}
	if alerts.Total != 1 || len(alerts.ByRule) != 1 ||
		alerts.ByRule[0].Rule != "flips-applied" || alerts.ByRule[0].Count != 1 {
		t.Errorf("alerts = %+v", alerts)
	}
}

// TestEventsSSEKeepalive checks a consumer on a quiet stream still
// receives comment heartbeats: no events are published at all, yet the
// connection carries ": keepalive" frames at the configured wall-clock
// interval, so slow or idle consumers (and the proxies in front of
// them) know the stream is alive.
func TestEventsSSEKeepalive(t *testing.T) {
	reg := metrics.New()
	clock := &simtime.Clock{}
	reg.BindClock(clock)
	p := NewPlane(scope.Scope{Metrics: reg})
	p.keepalive = 50 * time.Millisecond // keep the test quick
	p.BindClock(clock)
	srv, err := p.Serve("127.0.0.1:0", Sources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// A deliberately slow consumer: read one line at a time with pauses.
	sc := bufio.NewScanner(resp.Body)
	heartbeats := 0
	deadline := time.Now().Add(5 * time.Second)
	for heartbeats < 2 && time.Now().Before(deadline) {
		if !sc.Scan() {
			break
		}
		if strings.HasPrefix(sc.Text(), ": keepalive") {
			heartbeats++
			time.Sleep(75 * time.Millisecond)
		}
	}
	if heartbeats < 2 {
		t.Fatalf("saw %d keepalive frames on an idle stream, want >= 2", heartbeats)
	}
}

// TestBusDropCounterMetric checks a stalled subscriber's drops show
// on /metrics and /healthz, read from the bus, and nowhere in the
// run's registry: a wall-clock client sets the drop total, so it must
// not reach a snapshot, a watchpoint or an artifact.
func TestBusDropCounterMetric(t *testing.T) {
	srv, reg, _ := newTestServer(t)
	ins := inspect.New()
	ins.SetMetrics(reg)
	sub := srv.plane.Bus().Subscribe(2)
	defer sub.Cancel()
	for i := 0; i < 5; i++ {
		srv.plane.Bus().Publish("x", 0, nil)
	}

	_, body := get(t, srv, "/metrics")
	if !strings.Contains(body, "# TYPE obs_bus_dropped_total counter\nobs_bus_dropped_total 3\n") {
		t.Errorf("/metrics lacks obs_bus_dropped_total 3:\n%s", body)
	}
	_, body = get(t, srv, "/healthz")
	var h struct {
		BusDropped uint64 `json:"busDropped"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil || h.BusDropped != 3 {
		t.Errorf("/healthz busDropped = %d (%v), want 3: %s", h.BusDropped, err, body)
	}
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "obs_") {
			t.Errorf("registry carries the host figure %s = %g", c.Name, c.Value)
		}
	}
	ins.Evaluate(time.Second)
	if a := ins.AlertsSnapshot(); a.Total != 0 {
		t.Errorf("bus drops fired alerts: %+v", a)
	}
}
