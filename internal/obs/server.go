package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"hyperhammer/internal/profile"
	"hyperhammer/internal/runstore"
	"hyperhammer/internal/sched"
)

// Sources are what the server's endpoints read beyond the plane's
// scope. Serve takes them once: the CLI publishes its builders before
// it serves, so every endpoint answers from its first request with
// what the run will archive. Each source is optional.
type Sources struct {
	// Profile is the cost profiler /api/profile snapshots (empty
	// profile when nil). The server only reads it: its owner feeds it,
	// as the recorder's "profile" sink or through an experiment plan.
	Profile *profile.Builder
	// Schedule returns the host-cost schedule /api/plan analyses, nil
	// until the batch has run; the endpoint then serves the empty
	// report.
	Schedule func() *sched.Schedule
	// Store is the run-history store behind /api/history and /api/trend
	// (empty documents when nil). Its readers fold a snapshot copy of
	// the index, so the endpoints never race an in-flight ingest.
	Store *runstore.Store
	// Artifact builds the run bundle /api/artifact serves, JSON-encoded
	// per request; a func keeps obs from importing runartifact. The
	// endpoint answers 404 when it is nil.
	Artifact func() any
}

// Server is the plane's HTTP front end.
//
// Endpoints:
//
//	/              embedded HTML status page
//	/healthz       liveness + plane stats (JSON)
//	/metrics       Prometheus text exposition of the registry, plus
//	               the bus's drop total
//	/api/snapshot  JSON metrics snapshot
//	/api/series    ring-buffered sim-time series (?name= filters)
//	/api/events    live SSE stream off the event bus (recent events
//	               replayed first)
//	/api/profile   live sim-time cost profile (?format=json|folded|pprof)
//	/api/artifact  current run-artifact bundle, when the CLI published
//	               a builder (404 otherwise)
//	/api/heatmap   bucketed DRAM activation/flip heatmap (introspection
//	               plane; empty-but-valid without an inspector)
//	/api/census    memory-layout census per plan unit + live host
//	/api/alerts    fired watchpoint alerts (totals, per-rule, ring)
//	/api/forensics flip-provenance snapshot: per-attempt flip lineage,
//	               verdict/owner taxonomies, campaign outcomes
//	/api/ledger    determinism-ledger snapshot: rolling per-stream
//	               fingerprints sealed into sim-time epochs, per unit
//	               (empty-but-valid without a recorder)
//	/api/plan      host-cost schedule analysis of the current batch:
//	               per-unit host timings, critical path, parallel
//	               efficiency (empty-but-valid until the batch has run)
//	/api/history   run-history store index: one row per ingested run
//	               with config/content hashes and headline figures
//	               (empty-but-valid without a store: hh opens one with
//	               -store)
//	/api/trend     cross-run trend report over the store at default
//	               tolerances: per-figure series, drift attribution,
//	               host/bench regressions (hh trend renders the same
//	               data offline)
//	/debug/pprof/  the standard Go profiler endpoints (wall-clock; the
//	               simulation's own profile is /api/profile)
type Server struct {
	plane *Plane
	src   Sources
	ln    net.Listener
	srv   *http.Server
}

// Serve starts the plane's HTTP server on addr (":0" picks a free
// port) over src and serves in a background goroutine until Close.
func (p *Plane) Serve(addr string, src Sources) (*Server, error) {
	if p == nil {
		return nil, fmt.Errorf("obs: serve on a nil plane")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{plane: p, src: src, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/api/snapshot", s.handleSnapshot)
	mux.HandleFunc("/api/series", s.handleSeries)
	mux.HandleFunc("/api/events", s.handleEvents)
	mux.HandleFunc("/api/profile", s.handleProfile)
	mux.HandleFunc("/api/artifact", s.handleArtifact)
	for _, e := range snapshotEndpoints {
		mux.HandleFunc("/api/"+e.name, func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, e.snapshot(s))
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the server's listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down immediately, unblocking any SSE
// streams.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, statusPageHTML)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	published, dropped, subs := s.plane.bus.Stats()
	writeJSON(w, map[string]any{
		"ok":            true,
		"simSeconds":    s.plane.scope.Metrics.SimTime().Seconds(),
		"uptimeSeconds": time.Since(s.plane.start).Seconds(),
		"samples":       s.plane.store.Samples(),
		"busPublished":  published,
		"busDropped":    dropped,
		"busSubs":       subs,
	})
}

// handleMetrics serves the registry, then the bus's drop total, which
// is kept out of the registry because a wall-clock client sets it.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.plane.scope.Metrics.WriteProm(w) != nil {
		return // client went away
	}
	_, dropped, _ := s.plane.bus.Stats()
	fmt.Fprintf(w, "# HELP obs_bus_dropped_total Events the observability bus dropped on full subscriber buffers.\n"+
		"# TYPE obs_bus_dropped_total counter\nobs_bus_dropped_total %d\n", dropped)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.plane.scope.Metrics.WriteJSON(w) //nolint:errcheck // client went away
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	// Shape contract: "series" is always a JSON array, never null —
	// an unknown name or an empty store yields []. Dashboards iterate
	// the field without guarding.
	series := s.plane.store.Series(name)
	if series == nil {
		series = []SeriesData{}
	}
	writeJSON(w, map[string]any{
		"simSeconds": s.plane.scope.Metrics.SimTime().Seconds(),
		"samples":    s.plane.store.Samples(),
		"series":     series,
	})
}

// handleProfile serves the live cost profile in the requested format:
// JSON entry table (default), flamegraph folded stacks, or gzipped
// pprof protobuf (`go tool pprof http://.../api/profile?format=pprof`).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	p := s.src.Profile.Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, p)
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		p.WriteFolded(w) //nolint:errcheck // client went away
	case "pprof":
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="simprofile.pb.gz"`)
		p.WritePprof(w) //nolint:errcheck // client went away
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want json, folded, or pprof)", format), http.StatusBadRequest)
	}
}

// handleArtifact serves the published run-artifact builder's current
// bundle; 404 when the run archives none.
func (s *Server) handleArtifact(w http.ResponseWriter, _ *http.Request) {
	if s.src.Artifact == nil {
		http.Error(w, "no artifact builder installed (run with -artifact)", http.StatusNotFound)
		return
	}
	writeJSON(w, s.src.Artifact())
}

// snapshotEndpoints are the endpoints that each serve one JSON
// snapshot, at /api/<name>. The names match the run artifact's section
// names, plus the two run-history views. Every snapshot is nil-safe and
// never null, so each endpoint serves an empty-but-schema-valid
// document (lists [], never null) when its plane, schedule or store is
// absent. The run-history views fold a snapshot copy of the index
// built under the store lock, so they never show a partial in-flight
// ingest; trend applies the default tolerances (sim figures exact, host
// durations listed but not gated, bench ns/op at ±30%).
var snapshotEndpoints = []struct {
	name     string
	snapshot func(*Server) any
}{
	{"heatmap", func(s *Server) any { return s.plane.scope.Inspect.HeatmapSnapshot() }},
	{"census", func(s *Server) any { return s.plane.scope.Inspect.CensusSnapshot() }},
	{"alerts", func(s *Server) any { return s.plane.scope.Inspect.AlertsSnapshot() }},
	{"forensics", func(s *Server) any { return s.plane.scope.Forensics.Snapshot() }},
	{"ledger", func(s *Server) any { return s.plane.scope.Ledger.Snapshot() }},
	{"plan", func(s *Server) any {
		var sc *sched.Schedule
		if s.src.Schedule != nil {
			sc = s.src.Schedule()
		}
		return profile.BuildPlanReport(sc)
	}},
	{"history", func(s *Server) any { return s.src.Store.History() }},
	{"trend", func(s *Server) any { return s.src.Store.Trend(runstore.DefaultTrendOptions()) }},
}

// handleEvents streams the bus over SSE: the replay ring first, then
// live events until the client disconnects or the server closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	sub := s.plane.bus.Subscribe(512)
	defer sub.Cancel()

	write := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return true // skip unencodable event, keep the stream
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		return true
	}
	// Replay before going live; events published between Recent and
	// Subscribe-drain may duplicate, which SSE consumers dedupe by seq.
	lastSeq := uint64(0)
	for _, ev := range s.plane.bus.Recent() {
		if !write(ev) {
			return
		}
		lastSeq = ev.Seq
	}
	flusher.Flush()
	// Keepalive comment frames ride alongside data on a wall-clock
	// ticker: a quiet simulation (or one the scheduler has parked)
	// still produces bytes, so clients and proxies can tell an idle
	// stream from a dead one.
	ka := time.NewTicker(s.plane.keepalive)
	defer ka.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ka.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if ev.Seq <= lastSeq {
				continue // already replayed
			}
			if !write(ev) {
				return
			}
			flusher.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}
