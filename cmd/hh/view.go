package main

// hh top and hh plan: terminal views that refresh live against a
// running obs server or render once from a saved run. Both share one
// flag set, HTTP getter, URL normaliser and poll loop, the one run
// loader, and one header for a saved run's view.
//
// hh top shows the bucketed DRAM activation/flip heatmap, the
// memory-layout census, and the fired watchpoint alerts:
//
//	hh top                              # watch http://127.0.0.1:9190
//	hh top -url http://host:port        # watch another obs server
//	hh top -iterations 3                # stop after 3 refreshes
//	hh top run.json                     # render a saved run, exit
//
// hh plan shows the host-cost schedule: an ASCII Gantt chart of the
// experiment matrix across workers, per-worker utilization bars, the
// critical path, and the top-slack units that could absorb more work.
// All of it is host wall-clock — the one non-deterministic plane of a
// run — so nothing it shows participates in the byte-identical artifact
// guarantee (see DESIGN.md).
//
//	hh plan                             # watch http://127.0.0.1:9190
//	hh plan -iterations 1               # one frame, no repaint
//	hh plan store/RUN-ID                # render a stored run, exit
//
// A saved run is an artifact file or STORE/RUN-ID, read as hh diff
// reads it. A live view refreshes every two seconds and clears the
// screen before each frame unless it shows just one.
//
// Exit status of both: 0 on success, 1 on any error, 2 on usage errors.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"hyperhammer/internal/inspect"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/runartifact"
)

// refreshEvery is the wall-clock interval between a live view's frames.
const refreshEvery = 2 * time.Second

// getter fetches one obs endpoint (a path such as "/api/plan") and
// decodes its JSON body into v.
type getter func(path string, v any) error

// frameFunc fetches one live frame through get and renders it into w;
// base is the server's URL.
type frameFunc func(w io.Writer, base string, get getter) error

// view runs the terminal view name. Given a run it loads it and renders
// it once through show, which may refuse a run without its sections
// before writing anything; given none it watches the obs server through
// frame.
func view(name string, args []string, show func(ref string, a *runartifact.Artifact) error, frame frameFunc) int {
	fs := newFlags(name, "usage: hh "+name+" [-url URL] [-iterations N] [run]")
	url := fs.String("url", "http://127.0.0.1:9190", "obs server base URL (scheme optional)")
	iterations := fs.Int("iterations", 0, "stop after this many refreshes (0 = until interrupted)")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	var err error
	switch fs.NArg() {
	case 0:
		err = watch(*url, *iterations, frame)
	case 1:
		var a *runartifact.Artifact
		if a, err = load(fs.Arg(0)); err == nil {
			err = show(fs.Arg(0), a)
		}
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		return fail(name, 1, err)
	}
	return 0
}

// watch polls the obs server at base and shows one frame per
// refreshEvery until iterations frames have been shown (0 = until
// interrupted). Unless it shows a single frame it clears the screen
// before each one, once the frame has been fetched.
func watch(base string, iterations int, frame frameFunc) error {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string, v any) error {
		url := base + path
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return fmt.Errorf("GET %s: decoding: %w", url, err)
		}
		return nil
	}
	for i := 0; ; i++ {
		var buf bytes.Buffer
		if err := frame(&buf, base, get); err != nil {
			return err
		}
		if iterations != 1 {
			// Classic top repaint: clear, home, redraw.
			fmt.Print("\x1b[2J\x1b[H")
		}
		os.Stdout.Write(buf.Bytes())
		if iterations > 0 && i+1 >= iterations {
			return nil
		}
		time.Sleep(refreshEvery)
	}
}

// viewHeader is the first line of a saved run's view: which view, of
// which run.
func viewHeader(view, ref string, a *runartifact.Artifact) {
	fmt.Printf("hh %s %s  (tool=%s seed=%d scale=%s simSeconds=%.1f)\n\n",
		view, ref, a.Tool, a.Seed, a.Scale, a.SimSeconds)
}

func cmdTop(args []string) int {
	show := func(ref string, a *runartifact.Artifact) error {
		if a.Heatmap == nil && a.Census == nil && a.Alerts == nil {
			return fmt.Errorf("%s carries no introspection sections (rerun the producing command with -obs or -artifact)", ref)
		}
		viewHeader("top", ref, a)
		writeIntrospection(os.Stdout, a.Heatmap, a.Census, a.Alerts)
		return nil
	}
	return view("top", args, show, func(w io.Writer, base string, get getter) error {
		var heat inspect.HeatmapSnapshot
		var census inspect.CensusSnapshot
		var alerts inspect.AlertsSnapshot
		var health struct {
			SimSeconds    float64 `json:"simSeconds"`
			UptimeSeconds float64 `json:"uptimeSeconds"`
			BusDropped    uint64  `json:"busDropped"`
		}
		for _, e := range []struct {
			path string
			v    any
		}{{"/api/heatmap", &heat}, {"/api/census", &census}, {"/api/alerts", &alerts}, {"/healthz", &health}} {
			if err := get(e.path, e.v); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "hh top  %s  sim=%.1fs  uptime=%.0fs  busDropped=%d  (refresh %s)\n\n",
			base, health.SimSeconds, health.UptimeSeconds, health.BusDropped, refreshEvery)
		writeIntrospection(w, &heat, &census, &alerts)
		return nil
	})
}

// writeIntrospection renders whichever introspection sections are set.
func writeIntrospection(w io.Writer, heat *inspect.HeatmapSnapshot, census *inspect.CensusSnapshot, alerts *inspect.AlertsSnapshot) {
	if heat != nil {
		fmt.Fprintln(w, inspect.RenderHeatmap(*heat))
	}
	if census != nil {
		fmt.Fprintln(w, inspect.RenderCensus(*census))
	}
	if alerts != nil {
		fmt.Fprintln(w, inspect.RenderAlerts(*alerts))
	}
}

func cmdPlan(args []string) int {
	show := func(ref string, a *runartifact.Artifact) error {
		if a.Plan == nil {
			return fmt.Errorf("%s carries no plan section (rerun the producing command with -artifact)", ref)
		}
		viewHeader("plan", ref, a)
		return profile.RenderPlan(os.Stdout, a.Plan)
	}
	// A run that has not finished yet serves a plan with zero units;
	// that renders as an empty schedule rather than an error, so the
	// watch can be started before the run.
	return view("plan", args, show, func(w io.Writer, base string, get getter) error {
		var plan profile.PlanReport
		if err := get("/api/plan", &plan); err != nil {
			return err
		}
		fmt.Fprintf(w, "hh plan  %s  (refresh %s)\n\n", base, refreshEvery)
		return profile.RenderPlan(w, &plan)
	})
}
