package main

// hh top and hh plan: terminal views that refresh live against a
// running obs server or render once from a saved run artifact. Both
// share one HTTP getter, URL normaliser and poll loop, and one header
// for the offline views.
//
// hh top shows the bucketed DRAM activation/flip heatmap, the
// memory-layout census, and the fired watchpoint alerts:
//
//	hh top                              # watch http://127.0.0.1:9190
//	hh top -url http://host:port        # watch another obs server
//	hh top -interval 5s -iterations 3   # refresh cadence, stop after 3
//	hh top -once run.json               # render a saved artifact, exit
//
// hh plan shows the host-cost schedule: an ASCII Gantt chart of the
// experiment matrix across workers, per-worker utilization bars, the
// critical path, and the top-slack units that could absorb more work.
// All of it is host wall-clock — the one non-deterministic plane of a
// run — so nothing it shows participates in the byte-identical artifact
// guarantee (see DESIGN.md).
//
//	hh plan                             # watch http://127.0.0.1:9190
//	hh plan -once                       # fetch once, no repaint loop
//	hh plan -artifact run.json          # render a saved artifact, exit
//	hh plan -width 120                  # wider Gantt/utilization bars
//
// Exit status of both: 0 on success, 1 on any error.

import (
	"bytes"
	"encoding/json"
	"flag"
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

// liveFlags are the -url, -interval and -iterations flags of a view.
type liveFlags struct {
	url        string
	interval   time.Duration
	iterations int
}

func (l *liveFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&l.url, "url", "http://127.0.0.1:9190", "obs server base URL (scheme optional)")
	fs.DurationVar(&l.interval, "interval", 2*time.Second, "refresh interval in live mode")
	fs.IntVar(&l.iterations, "iterations", 0, "stop after this many refreshes (0 = until interrupted)")
}

// getter fetches one obs endpoint (a path such as "/api/plan") and
// decodes its JSON body into v.
type getter func(path string, v any) error

// watch polls the obs server and shows one frame per interval until
// l.iterations frames have been shown (0 = until interrupted). frame
// fetches through get and renders into w; repaint clears the screen
// before each frame, once it has been fetched.
func watch(l liveFlags, repaint bool, frame func(w io.Writer, base string, get getter) error) error {
	base := l.url
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
		if repaint {
			// Classic top repaint: clear, home, redraw.
			fmt.Print("\x1b[2J\x1b[H")
		}
		os.Stdout.Write(buf.Bytes())
		if l.iterations > 0 && i+1 >= l.iterations {
			return nil
		}
		time.Sleep(l.interval)
	}
}

// viewHeader is the first line of an offline view: which view, of
// which run.
func viewHeader(view, path string, a *runartifact.Artifact) {
	fmt.Printf("hh %s %s  (tool=%s seed=%d scale=%s simSeconds=%.1f)\n\n",
		view, path, a.Tool, a.Seed, a.Scale, a.SimSeconds)
}

func cmdTop(args []string) int {
	fs := newFlags("top", "")
	var live liveFlags
	live.register(fs)
	once := fs.String("once", "", "render this saved run artifact once and exit (no server needed)")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	if *once != "" {
		a, err := load(*once)
		if err == nil && a.Heatmap == nil && a.Census == nil && a.Alerts == nil {
			err = fmt.Errorf("%s carries no introspection sections (rerun the producing command with -obs or -artifact)", *once)
		}
		if err != nil {
			return fail("top", 1, err)
		}
		viewHeader("top -once", *once, a)
		writeIntrospection(os.Stdout, a.Heatmap, a.Census, a.Alerts)
		return 0
	}
	err := watch(live, true, func(w io.Writer, base string, get getter) error {
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
			base, health.SimSeconds, health.UptimeSeconds, health.BusDropped, live.interval)
		writeIntrospection(w, &heat, &census, &alerts)
		return nil
	})
	if err != nil {
		return fail("top", 1, err)
	}
	return 0
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
	fs := newFlags("plan", "")
	var live liveFlags
	live.register(fs)
	once := fs.Bool("once", false, "fetch and render a single frame without clearing the screen")
	artifact := fs.String("artifact", "", "render this saved run artifact's plan section and exit (no server needed)")
	width := fs.Int("width", 72, "chart width in characters")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	var err error
	if *artifact != "" {
		var a *runartifact.Artifact
		a, err = load(*artifact)
		if err == nil && a.Plan == nil {
			err = fmt.Errorf("%s carries no plan section (rerun the producing command with -artifact)", *artifact)
		}
		if err == nil {
			viewHeader("plan -artifact", *artifact, a)
			err = profile.RenderPlan(os.Stdout, a.Plan, *width)
		}
	} else {
		if *once {
			live.iterations = 1
		}
		// A run that has not finished yet serves a plan with zero units;
		// that renders as an empty schedule rather than an error, so the
		// watch can be started before the run.
		err = watch(live, !*once, func(w io.Writer, base string, get getter) error {
			var plan profile.PlanReport
			if err := get("/api/plan", &plan); err != nil {
				return err
			}
			fmt.Fprintf(w, "hh plan  %s  (refresh %s)\n\n", base, live.interval)
			return profile.RenderPlan(w, &plan, *width)
		})
	}
	if err != nil {
		return fail("plan", 1, err)
	}
	return 0
}
