package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
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
		{"trace", outputs{obs: "127.0.0.1:0", obsSample: time.Second, trace: filepath.Join(t.TempDir(), "t.jsonl")}},
		{"obs-only", outputs{obs: "127.0.0.1:0", obsSample: time.Second}},
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
// deterministic section of the run bundle (DESIGN §3, rule 6), so a
// run with -obs and one without give one ContentHash.
func TestObsLeavesContentHash(t *testing.T) {
	dir := t.TempDir()
	discardStdout(t)
	var hashes []string
	for i, obs := range [][]string{nil, {"-obs", "127.0.0.1:0"}} {
		path := filepath.Join(dir, fmt.Sprintf("run%d.json", i))
		// One attempt does not escape, so the status is 1; the
		// artifact is written on every exit path.
		cmdRun(append([]string{"-short", "-attempts", "1", "-artifact", path}, obs...))
		a, err := runartifact.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, a.ContentHash())
	}
	if hashes[0] != hashes[1] {
		t.Errorf("ContentHash %s without -obs, %s with it", hashes[0], hashes[1])
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
