package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperhammer"
	"hyperhammer/experiments"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
	"hyperhammer/internal/sched"
)

// TestRunBootArmsObsPlane: hh run's host path binds the live plane's
// sampler to the booted host's clock. Boot alone leaves an anchor
// sample, after the host.boot event, on the bus; simulated time on the
// host then grows the series. -obs records the run's events whether or
// not -trace writes them to a file.
func TestRunBootArmsObsPlane(t *testing.T) {
	for _, tc := range []struct {
		name string
		out  outputs
	}{
		{"trace", outputs{obs: "127.0.0.1:0", trace: filepath.Join(t.TempDir(), "t.jsonl")}},
		{"obs-only", outputs{obs: "127.0.0.1:0"}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRunBootArmsObsPlane(t, tc.out) })
	}
}

func checkRunBootArmsObsPlane(t *testing.T, out outputs) {
	s, err := openSession("run", out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	sub := s.plane.Bus().Subscribe(256)
	defer sub.Cancel()

	var c escapeRun
	c.host, _, _ = experiments.Options{Seed: 4, Short: true, Scope: s.Scope}.Machine(experiments.SystemS1)
	c.host.BootNoisePages = 500
	host, err := c.boot(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.plane.Store().Samples() == 0 {
		t.Fatal("no anchor sample at boot")
	}
	boot, anchor := -1, -1
	for i := 0; len(sub.Events()) > 0; i++ {
		switch (<-sub.Events()).Kind {
		case "host.boot":
			boot = i
		case "obs.sample":
			if anchor < 0 {
				anchor = i
			}
		}
	}
	if boot < 0 || anchor < boot {
		t.Errorf("bus order: host.boot at %d, anchor sample at %d; want the boot event first", boot, anchor)
	}

	before := s.plane.Store().Samples()
	vm, err := host.CreateVM(hyperhammer.VMConfig{MemSize: 64 * hyperhammer.MiB, VFIOGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	host.Clock.Advance(3 * time.Second)
	vm.Destroy()
	if after := s.plane.Store().Samples(); after <= before {
		t.Errorf("samples stuck at %d while sim time advanced", after)
	}
	grew := false
	for _, sd := range s.plane.Store().Series("vms_created_total") {
		grew = grew || len(sd.Points) >= 2 && sd.Points[len(sd.Points)-1].Value == 1
	}
	if !grew {
		t.Errorf("vms_created_total series did not grow: %+v", s.plane.Store().Series("vms_created_total"))
	}
}

// TestObsLeavesContentHash: serving the live plane moves no
// deterministic section of the run bundle (DESIGN §3, rule 6). Runs
// with -obs and a client that connects to /api/events and never reads
// give the ContentHash of a run without -obs, and hh diff passes each
// against it. The runs vary GOMAXPROCS and GOGC, so the bus drops
// events at different points of the run, and each must have dropped
// some: a drop total that reached the artifact would move its hash.
func TestObsLeavesContentHash(t *testing.T) {
	dir := t.TempDir()
	discardStdout(t)
	runs := []struct {
		name      string
		procs, gc int // zero for the run without -obs
	}{
		{"no-obs", 0, 0},
		{"stalled-procs1-gogc20", 1, 20},
		{"stalled-procs4-gogc400", 4, 400},
	}
	var paths, hashes []string
	for _, r := range runs {
		path := filepath.Join(dir, r.name+".json")
		// One attempt does not escape, so the status is 1; the
		// artifact is written on every exit path.
		args := []string{"-short", "-attempts", "1", "-artifact", path}
		if r.procs == 0 {
			cmdRun(args)
		} else {
			args = append(args, "-obs", "127.0.0.1:0", "-obs-hold", "100ms")
			dropped := runWithStalledClient(t, args, r.procs, r.gc)
			if dropped == 0 {
				t.Errorf("%s: the bus dropped no events; the stalled client perturbed nothing", r.name)
			}
			t.Logf("%s: the bus dropped %d events", r.name, dropped)
		}
		a, err := runartifact.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		paths, hashes = append(paths, path), append(hashes, a.ContentHash())
	}
	for i := 1; i < len(runs); i++ {
		if hashes[i] != hashes[0] {
			t.Errorf("ContentHash %s for %s, %s for %s", hashes[i], runs[i].name, hashes[0], runs[0].name)
		}
		if code := cmdDiff([]string{paths[0], paths[i]}); code != 0 {
			t.Errorf("hh diff %s %s exited %d", runs[0].name, runs[i].name, code)
		}
	}
}

// runWithStalledClient runs hh run with args, which must serve the live
// plane, under GOMAXPROCS procs and GOGC gc. As soon as the session logs
// its address, one client connects to /api/events with a small receive
// buffer and never reads, and another polls /healthz until the server
// closes. It returns the largest bus drop total the poller saw.
func runWithStalledClient(t *testing.T, args []string, procs, gc int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(gc))
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var dropped atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			_, url, ok := strings.Cut(sc.Text(), "msg=\"observability plane serving\" url=http://")
			if !ok {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				stallEvents(t, strings.TrimSuffix(url, "/"), &dropped)
			}()
		}
	}()
	stdout := os.Stdout
	os.Stdout = w
	cmdRun(args)
	os.Stdout = stdout
	w.Close()
	wg.Wait()
	return dropped.Load()
}

// stallEvents connects to addr's /api/events and never reads, then
// records the bus's drop total from /healthz into dropped until the
// server closes.
func stallEvents(t *testing.T, addr string, dropped *atomic.Uint64) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	// A small receive buffer, set before the request goes out, makes
	// the server's writes block after a few kilobytes.
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Error(err)
		return
	}
	if _, err := fmt.Fprintf(conn, "GET /api/events HTTP/1.1\r\nHost: %s\r\n\r\n", addr); err != nil {
		t.Error(err)
		return
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err != nil {
			return // the server has closed
		}
		var h struct {
			BusDropped uint64 `json:"busDropped"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err == nil && h.BusDropped > dropped.Load() {
			dropped.Store(h.BusDropped)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestObsServesPublishedSources: the session serves only once the
// subcommand has published, so every /api endpoint answers its first
// request from the published builders, the profiler and the store.
// /api/artifact is 404 unless -artifact or -store archives the run.
func TestObsServesPublishedSources(t *testing.T) {
	dir := t.TempDir()
	out := outputs{obs: "127.0.0.1:0", artifact: filepath.Join(dir, "a.json"), store: filepath.Join(dir, "store")}
	s, err := openSession("run", out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.store.Ingest(runartifact.New("hyperhammer", 4, "short")); err != nil {
		t.Fatal(err)
	}
	s.Trace.SetNamedSink("profile", s.profiler.Consume)
	s.Trace.StartSpan("attack.campaign").End()
	sc := &sched.Schedule{Workers: 1, WallSeconds: 0.1, Units: []sched.UnitTiming{{Name: "campaign",
		EndSeconds: 0.1, DeliverStartSeconds: 0.1, DeliverEndSeconds: 0.1, Started: true, Delivered: true}}}
	build := func() *runartifact.Artifact {
		a := s.newArtifact("hyperhammer", 4, true)
		a.Outcome["attempts"] = 2
		return a
	}
	if err := s.publish(build, func() *sched.Schedule { return sc }); err != nil {
		t.Fatal(err)
	}

	var a runartifact.Artifact
	getJSON(t, s, "/api/artifact", &a)
	if a.Tool != "hyperhammer" || a.Outcome["attempts"] != 2 || a.Plan == nil || len(a.Plan.Units) != 1 {
		t.Errorf("/api/artifact = tool %q, outcome %v, plan %+v", a.Tool, a.Outcome, a.Plan)
	}
	var plan profile.PlanReport
	getJSON(t, s, "/api/plan", &plan)
	if len(plan.Units) != 1 || plan.Units[0].Name != "campaign" {
		t.Errorf("/api/plan units = %+v", plan.Units)
	}
	var prof profile.Profile
	getJSON(t, s, "/api/profile", &prof)
	if _, ok := prof.Lookup("attack.campaign"); !ok {
		t.Errorf("/api/profile entries = %+v", prof.Entries)
	}
	var hist runstore.HistorySnapshot
	getJSON(t, s, "/api/history", &hist)
	if len(hist.Entries) != 1 {
		t.Errorf("/api/history has %d entries, want the 1 ingested run", len(hist.Entries))
	}
	var trend runstore.Report
	getJSON(t, s, "/api/trend", &trend)
	if len(trend.Groups) != 1 {
		t.Errorf("/api/trend has %d groups, want 1", len(trend.Groups))
	}
	for _, path := range []string{"/api/snapshot", "/api/series", "/api/heatmap", "/api/census",
		"/api/alerts", "/api/forensics", "/api/ledger"} {
		var doc map[string]any
		getJSON(t, s, path, &doc)
	}
	resp, err := http.Get("http://" + s.srv.Addr() + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || ct != "text/event-stream" {
		t.Errorf("/api/events = %d %s", resp.StatusCode, ct)
	}
	resp.Body.Close()
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	s, err = openSession("run", outputs{obs: "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.publish(build, func() *sched.Schedule { return nil }); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, s, "/api/artifact"); code != http.StatusNotFound {
		t.Errorf("/api/artifact without -artifact or -store = %d %s, want 404", code, body)
	}
}

func get(t *testing.T, s *session, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.srv.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// getJSON requires a 200 JSON answer that never serializes null and
// decodes it into v.
func getJSON(t *testing.T, s *session, path string, v any) {
	t.Helper()
	code, body := get(t, s, path)
	if code != http.StatusOK {
		t.Fatalf("%s = %d %s", path, code, body)
	}
	if strings.Contains(body, "null") {
		t.Errorf("%s serializes null:\n%s", path, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}
