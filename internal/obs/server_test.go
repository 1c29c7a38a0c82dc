package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/inspect"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/scope"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/trace"
)

// newTestServer boots a plane over a fresh registry on a ticking
// clock, serving no sources on a random port.
func newTestServer(t *testing.T) (*Server, *metrics.Registry, *simtime.Clock) {
	t.Helper()
	return newServerOver(t, scope.Scope{}, Sources{})
}

// newServerOver is newTestServer over the recorder planes in s (its
// Metrics replaced by the fresh registry, its Trace bound to the
// clock), serving src.
func newServerOver(t *testing.T, s scope.Scope, src Sources) (*Server, *metrics.Registry, *simtime.Clock) {
	t.Helper()
	clock := &simtime.Clock{}
	s.Metrics = metrics.New()
	s.Metrics.BindClock(clock)
	s.Trace.BindClock(clock)
	p := NewPlane(s, Config{SampleEvery: time.Second})
	p.BindClock(clock)
	srv, err := p.Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, s.Metrics, clock
}

func get(t *testing.T, srv *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthz(t *testing.T) {
	srv, _, clock := newTestServer(t)
	clock.Advance(90 * time.Second)
	code, body := get(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h["ok"] != true || h["simSeconds"].(float64) != 90 {
		t.Errorf("healthz = %v", h)
	}
}

func TestMetricsEndpointServesProm(t *testing.T) {
	srv, reg, _ := newTestServer(t)
	reg.Counter("dram_activations_total", "activations").Add(42)
	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "sim_seconds") ||
		!strings.Contains(body, "dram_activations_total 42") {
		t.Errorf("prom body:\n%s", body)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	srv, reg, _ := newTestServer(t)
	reg.Gauge("vms", "live").Set(3)
	code, body := get(t, srv, "/api/snapshot")
	if code != 200 || !strings.Contains(body, `"vms"`) {
		t.Errorf("snapshot = %d %s", code, body)
	}
}

func TestSeriesEndpointAccumulatesOverSimTime(t *testing.T) {
	srv, reg, clock := newTestServer(t)
	acts := reg.Counter("dram_activations_total", "activations")
	acts.Add(10)
	clock.Advance(1100 * time.Millisecond)
	acts.Add(20)
	clock.Advance(time.Second)

	code, body := get(t, srv, "/api/series?name=dram_activations_total")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var out struct {
		Series []SeriesData `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 1 {
		t.Fatalf("series = %+v", out.Series)
	}
	pts := out.Series[0].Points
	if len(pts) < 2 {
		t.Fatalf("want >= 2 sample points, got %+v", pts)
	}
	if pts[len(pts)-1].Value != 30 {
		t.Errorf("last value = %v", pts[len(pts)-1].Value)
	}
	// Unknown names return an empty list, not null.
	_, body = get(t, srv, "/api/series?name=nope")
	if !strings.Contains(body, `"series": []`) {
		t.Errorf("empty filter body = %s", body)
	}
}

// TestSeriesShapeIsStable pins the /api/series JSON contract: the
// "series" field is an array in every state — fresh plane, no samples,
// no name filter — never null, and each series' "points" is an array
// too. Dashboards iterate these without guarding.
func TestSeriesShapeIsStable(t *testing.T) {
	p := NewPlane(scope.Scope{}, Config{}) // no registry, no samples ever
	srv, err := p.Serve("127.0.0.1:0", Sources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/api/series", "/api/series?name=nope"} {
		code, body := get(t, srv, path)
		if code != 200 {
			t.Fatalf("GET %s status = %d", path, code)
		}
		if strings.Contains(body, `"series": null`) || !strings.Contains(body, `"series": []`) {
			t.Errorf("GET %s: series not an empty array:\n%s", path, body)
		}
	}

	// And with data present, every series' points is a real array.
	srv2, reg, clock := newTestServer(t)
	reg.Counter("dram_activations_total", "a").Add(1)
	clock.Advance(2 * time.Second)
	_, body := get(t, srv2, "/api/series")
	var out struct {
		Series []SeriesData `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series) == 0 {
		t.Fatal("no series recorded")
	}
	if strings.Contains(body, `"points": null`) {
		t.Errorf("series with null points:\n%s", body)
	}
}

func TestProfileEndpoint(t *testing.T) {
	rec := trace.New(nil, 0)
	b := profile.NewBuilder(nil)
	rec.SetNamedSink("profile", b.Consume)
	srv, _, clock := newServerOver(t, scope.Scope{Trace: rec}, Sources{Profile: b})

	root := rec.StartSpan("attack.campaign")
	child := root.StartChild("attack.steer")
	clock.Advance(30 * time.Second)
	child.End()
	root.End()

	code, body := get(t, srv, "/api/profile")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var p profile.Profile
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Lookup("attack.campaign;attack.steer"); !ok {
		t.Errorf("profile entries = %+v", p.Entries)
	}

	_, folded := get(t, srv, "/api/profile?format=folded")
	if !strings.Contains(folded, "attack.campaign;attack.steer 30000000") {
		t.Errorf("folded body:\n%s", folded)
	}

	code, raw := get(t, srv, "/api/profile?format=pprof")
	if code != 200 || len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Errorf("pprof format: code=%d, first bytes % x", code, raw[:min(2, len(raw))])
	}

	if code, _ := get(t, srv, "/api/profile?format=bogus"); code != 400 {
		t.Errorf("bogus format status = %d", code)
	}
}

// TestProfileEndpointWithoutBuilder: the endpoint degrades to an empty
// profile rather than erroring when no profiler is attached.
func TestProfileEndpointWithoutBuilder(t *testing.T) {
	srv, _, _ := newTestServer(t)
	code, body := get(t, srv, "/api/profile")
	if code != 200 || !strings.Contains(body, `"events": 0`) {
		t.Errorf("code=%d body=%s", code, body)
	}
}

func TestArtifactEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t)
	if code, _ := get(t, srv, "/api/artifact"); code != 404 {
		t.Errorf("without builder: status = %d", code)
	}
	srv, _, _ = newServerOver(t, scope.Scope{}, Sources{Artifact: func() any {
		return map[string]any{"tool": "test", "seed": 4}
	}})
	code, body := get(t, srv, "/api/artifact")
	if code != 200 || !strings.Contains(body, `"tool": "test"`) {
		t.Errorf("with builder: code=%d body=%s", code, body)
	}
}

func TestEventsSSEStreamsTraceEvents(t *testing.T) {
	rec := trace.New(nil, 0)
	srv, _, clock := newServerOver(t, scope.Scope{Trace: rec}, Sources{})

	resp, err := http.Get("http://" + srv.Addr() + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %s", ct)
	}

	clock.Advance(5 * time.Second)
	rec.Emit("vm.create", "memBytes", 7)

	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(5 * time.Second)
	got := make(chan Event, 16)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev Event
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				got <- ev
			}
		}
	}()
	for {
		select {
		case ev := <-got:
			if ev.Kind == "vm.create" {
				if ev.SimSeconds != 5 {
					t.Errorf("simSeconds = %v", ev.SimSeconds)
				}
				return
			}
		case <-deadline:
			t.Fatal("vm.create never arrived on the SSE stream")
		}
	}
}

func TestStatusPageServed(t *testing.T) {
	srv, _, _ := newTestServer(t)
	code, body := get(t, srv, "/")
	if code != 200 || !strings.Contains(body, "hyperhammer") ||
		!strings.Contains(body, "EventSource") {
		t.Errorf("status page = %d (%d bytes)", code, len(body))
	}
	code, _ = get(t, srv, "/nope")
	if code != 404 {
		t.Errorf("unknown path = %d", code)
	}
}

func TestPprofServed(t *testing.T) {
	srv, _, _ := newTestServer(t)
	code, body := get(t, srv, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index = %d", code)
	}
}

func TestServerCloseUnblocksSSE(t *testing.T) {
	srv, _, _ := newTestServer(t)
	resp, err := http.Get("http://" + srv.Addr() + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		close(done)
	}()
	srv.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open after server close")
	}
}

// TestConcurrentScrapeWhileSimulating is the live-plane race test: one
// goroutine drives the simulation (publishing trace events and
// crossing sample boundaries) while HTTP clients scrape every
// endpoint.
func TestConcurrentScrapeWhileSimulating(t *testing.T) {
	reg := metrics.New()
	clock := &simtime.Clock{}
	reg.BindClock(clock)
	rec := trace.New(nil, 0)
	rec.BindClock(clock)
	ins := inspect.New()
	ins.BindMachine(4, 2048)
	ins.SetMetrics(reg)
	ins.SetCensusFunc(func() inspect.Census { return inspect.Census{VMs: 1} })
	p := NewPlane(scope.Scope{Trace: rec, Metrics: reg, Inspect: ins}, Config{SampleEvery: time.Second})
	p.BindClock(clock)
	srv, err := p.Serve("127.0.0.1:0", Sources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := reg.Counter("n", "")
	simDone := make(chan struct{})
	go func() {
		defer close(simDone)
		for i := 0; i < 300; i++ {
			c.Inc()
			rec.Emit("tick", "i", i)
			ins.RecordRowActivations(i%4, i%2048, 100)
			clock.Advance(500 * time.Millisecond)
			ins.Evaluate(clock.Now())
		}
	}()
	paths := []string{"/healthz", "/metrics", "/api/snapshot", "/api/series", "/",
		"/api/heatmap", "/api/census", "/api/alerts", "/api/forensics"}
	for _, path := range paths {
		path := path
		go func() {
			for i := 0; i < 20; i++ {
				resp, err := http.Get("http://" + srv.Addr() + path)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}
	<-simDone
	if got := p.Store().Samples(); got < 100 {
		t.Errorf("samples = %d, want many", got)
	}
	code, body := get(t, srv, "/api/series?name=n")
	if code != 200 {
		t.Fatalf("series status = %d", code)
	}
	var out struct {
		Series []SeriesData `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 1 || len(out.Series[0].Points) < 2 {
		t.Fatalf("series after run = %+v", out.Series)
	}
	_ = fmt.Sprint() // keep fmt import if asserts change
}
