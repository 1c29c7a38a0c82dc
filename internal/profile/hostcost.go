package profile

// Host-cost plan analysis: folds a sched.Schedule (per-unit host
// wall-clock timings from the deterministic parallel engine) into a
// critical-path and parallel-efficiency report. Everything here is
// host-side observation — plan figures are non-deterministic and live
// only in the artifact's `plan` section, which hh diff compares
// loosely; they must never feed back into simulated output.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hyperhammer/internal/sched"
)

// PlanVersion is the plan report schema version.
const PlanVersion = 1

// PlanUnit is one unit's host-cost record plus its derived
// critical-path figures.
type PlanUnit struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	// Raw schedule timestamps, host seconds relative to batch start.
	StartSeconds        float64 `json:"startSeconds"`
	EndSeconds          float64 `json:"endSeconds"`
	DeliverStartSeconds float64 `json:"deliverStartSeconds"`
	DeliverEndSeconds   float64 `json:"deliverEndSeconds"`
	// Derived durations.
	RunSeconds         float64 `json:"runSeconds"`
	QueueWaitSeconds   float64 `json:"queueWaitSeconds"`
	DeliverHoldSeconds float64 `json:"deliverHoldSeconds"`
	DeliverSeconds     float64 `json:"deliverSeconds"`
	// ChainSeconds is the length of the dependency chain through this
	// unit (its run plus every delivery at or after its index, which
	// must serialize behind it); SlackSeconds is how much longer this
	// unit could have run without stretching the critical path.
	ChainSeconds float64 `json:"chainSeconds"`
	SlackSeconds float64 `json:"slackSeconds"`
	// Critical marks the unit whose chain IS the critical path.
	Critical  bool `json:"critical,omitempty"`
	Started   bool `json:"started"`
	Delivered bool `json:"delivered"`
}

// PlanReport is the host-cost analysis of one scheduled batch.
type PlanReport struct {
	Version int `json:"version"`
	// Workers is the effective pool size the batch ran with.
	Workers int        `json:"workers"`
	Units   []PlanUnit `json:"units"`
	// WallSeconds and CPUSeconds are the batch's host wall-clock and
	// process-CPU cost; BusySeconds sums unit run times and
	// DeliverSeconds sums delivery callback times.
	WallSeconds    float64 `json:"wallSeconds"`
	CPUSeconds     float64 `json:"cpuSeconds"`
	BusySeconds    float64 `json:"busySeconds"`
	DeliverSeconds float64 `json:"deliverSeconds"`
	// SequentialSeconds estimates a 1-worker run (sum of runs plus
	// deliveries); CriticalPathSeconds is the longest chain — the floor
	// no worker count can beat.
	SequentialSeconds   float64 `json:"sequentialSeconds"`
	CriticalPathSeconds float64 `json:"criticalPathSeconds"`
	// CriticalPath names the chain realizing CriticalPathSeconds: the
	// critical unit's run, then every delivery it gates.
	CriticalPath []string `json:"criticalPath"`
	// MaxSpeedup is SequentialSeconds/CriticalPathSeconds (the
	// infinite-worker ceiling); ActualSpeedup is
	// SequentialSeconds/WallSeconds; Efficiency is
	// ActualSpeedup/Workers.
	MaxSpeedup    float64 `json:"maxSpeedup"`
	ActualSpeedup float64 `json:"actualSpeedup"`
	Efficiency    float64 `json:"efficiency"`
	// WorkerBusySeconds is per-worker-slot busy time (occupancy row
	// sums), indexed by worker.
	WorkerBusySeconds []float64 `json:"workerBusySeconds"`
}

// EmptyPlanReport returns a valid zero report (all slices non-nil so
// JSON consumers see [] rather than null).
func EmptyPlanReport() *PlanReport {
	return &PlanReport{
		Version:           PlanVersion,
		Units:             []PlanUnit{},
		CriticalPath:      []string{},
		WorkerBusySeconds: []float64{},
	}
}

// BuildPlanReport derives the critical-path and parallel-efficiency
// analysis from a batch schedule. The dependency model is the engine's
// actual contract: units are independent (they may all run at once)
// but deliveries serialize in index order, so the chain through unit i
// is its own run plus every delivery from index i onward. The longest
// such chain is the wall-clock floor at infinite workers. Safe on a
// nil schedule, returning an empty report.
func BuildPlanReport(sc *sched.Schedule) *PlanReport {
	r := EmptyPlanReport()
	if sc == nil {
		return r
	}
	r.Workers = sc.Workers
	r.WallSeconds = sc.WallSeconds
	r.CPUSeconds = sc.CPUSeconds
	r.BusySeconds = sc.BusySeconds()
	r.WorkerBusySeconds = sc.WorkerBusySeconds()
	if r.WorkerBusySeconds == nil {
		r.WorkerBusySeconds = []float64{}
	}
	n := len(sc.Units)
	if n == 0 {
		return r
	}

	// deliverSuffix[i] = sum of delivery times for units i..n-1: the
	// serialized tail unit i's delivery chain must wait through.
	deliverSuffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		deliverSuffix[i] = deliverSuffix[i+1] + sc.Units[i].DeliverSeconds()
	}
	r.DeliverSeconds = deliverSuffix[0]

	r.Units = make([]PlanUnit, n)
	critIdx := 0
	for i, u := range sc.Units {
		chain := u.RunSeconds() + deliverSuffix[i]
		r.Units[i] = PlanUnit{
			Index:               u.Index,
			Name:                u.Name,
			Worker:              u.Worker,
			StartSeconds:        u.StartSeconds,
			EndSeconds:          u.EndSeconds,
			DeliverStartSeconds: u.DeliverStartSeconds,
			DeliverEndSeconds:   u.DeliverEndSeconds,
			RunSeconds:          u.RunSeconds(),
			QueueWaitSeconds:    u.QueueWaitSeconds(),
			DeliverHoldSeconds:  u.DeliverHoldSeconds(),
			DeliverSeconds:      u.DeliverSeconds(),
			ChainSeconds:        chain,
			Started:             u.Started,
			Delivered:           u.Delivered,
		}
		r.SequentialSeconds += u.RunSeconds() + u.DeliverSeconds()
		if chain > r.Units[critIdx].ChainSeconds {
			critIdx = i
		}
	}
	r.CriticalPathSeconds = r.Units[critIdx].ChainSeconds
	r.Units[critIdx].Critical = true
	for i := range r.Units {
		r.Units[i].SlackSeconds = r.CriticalPathSeconds - r.Units[i].ChainSeconds
	}
	for i := critIdx; i < n; i++ {
		r.CriticalPath = append(r.CriticalPath, sc.Units[i].Name)
	}
	if r.CriticalPathSeconds > 0 {
		r.MaxSpeedup = r.SequentialSeconds / r.CriticalPathSeconds
	}
	if r.WallSeconds > 0 {
		r.ActualSpeedup = r.SequentialSeconds / r.WallSeconds
	}
	if r.Workers > 0 {
		r.Efficiency = r.ActualSpeedup / float64(r.Workers)
	}
	return r
}

// RenderPlan writes the human view of a plan report: summary header,
// ASCII Gantt chart (one row per unit, run time as '=', delivery hold
// as '.', delivery as '|'), per-worker utilization bars, and the
// top-slack unit table, 72 columns wide. This is the single
// renderer behind hh plan (live and from a saved run) and the /api/plan
// consumers, per the one-renderer-per-view convention.
func RenderPlan(w io.Writer, r *PlanReport) error {
	if r == nil {
		r = EmptyPlanReport()
	}
	const width = 72 // chart columns
	bw := &errWriter{w: w}
	bw.printf("plan: %d units on %d workers\n", len(r.Units), r.Workers)
	bw.printf("wall %ss  cpu %ss  busy %ss  deliver %ss  seq-est %ss\n",
		fmtSec(r.WallSeconds), fmtSec(r.CPUSeconds), fmtSec(r.BusySeconds),
		fmtSec(r.DeliverSeconds), fmtSec(r.SequentialSeconds))
	bw.printf("speedup %.2fx actual / %.2fx max (critical path %ss)  efficiency %.0f%%\n",
		r.ActualSpeedup, r.MaxSpeedup, fmtSec(r.CriticalPathSeconds), r.Efficiency*100)
	if len(r.CriticalPath) > 0 {
		path := r.CriticalPath
		const maxShown = 6
		if len(path) > maxShown {
			path = append(append([]string{}, path[:maxShown-1]...),
				fmt.Sprintf("… +%d deliveries", len(r.CriticalPath)-(maxShown-1)))
		}
		bw.printf("critical path: %s\n", strings.Join(path, " → "))
	}
	if len(r.Units) == 0 {
		bw.printf("(no units scheduled)\n")
		return bw.err
	}

	nameW := 0
	for _, u := range r.Units {
		if len(u.Name) > nameW {
			nameW = len(u.Name)
		}
	}
	if nameW > 28 {
		nameW = 28
	}
	span := r.WallSeconds
	if span <= 0 {
		for _, u := range r.Units {
			if u.DeliverEndSeconds > span {
				span = u.DeliverEndSeconds
			}
		}
	}
	bw.printf("\ngantt ('=' run, '.' deliver hold, '|' deliver):\n")
	col := func(t float64) int {
		if span <= 0 {
			return 0
		}
		c := int(t / span * float64(width))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	for _, u := range r.Units {
		row := []byte(strings.Repeat(" ", width))
		if u.Started {
			for c := col(u.StartSeconds); c <= col(u.EndSeconds); c++ {
				row[c] = '='
			}
			if u.Delivered {
				for c := col(u.EndSeconds); c < col(u.DeliverStartSeconds); c++ {
					row[c] = '.'
				}
				row[col(u.DeliverEndSeconds)] = '|'
			}
		}
		mark := " "
		if u.Critical {
			mark = "*"
		}
		worker := "--"
		if u.Worker >= 0 {
			worker = fmt.Sprintf("w%d", u.Worker)
		}
		bw.printf("%s %-*s %s [%s]\n", mark, nameW, clip(u.Name, nameW), worker, row)
	}

	bw.printf("\nworkers:\n")
	const barW = width - 10
	for wi, busy := range r.WorkerBusySeconds {
		frac := 0.0
		if span > 0 {
			frac = busy / span
		}
		if frac > 1 {
			frac = 1
		}
		fill := int(frac*float64(barW) + 0.5)
		bw.printf("  w%-2d [%s%s] %3.0f%%  %ss busy\n",
			wi, strings.Repeat("#", fill), strings.Repeat(".", barW-fill), frac*100, fmtSec(busy))
	}

	bw.printf("\ntop slack (units that could run this much longer for free):\n")
	idx := make([]int, len(r.Units))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.Units[idx[a]].SlackSeconds > r.Units[idx[b]].SlackSeconds
	})
	top := idx
	if len(top) > 5 {
		top = top[:5]
	}
	for _, i := range top {
		u := r.Units[i]
		bw.printf("  %-*s slack %ss (chain %ss, run %ss)\n",
			nameW, clip(u.Name, nameW), fmtSec(u.SlackSeconds), fmtSec(u.ChainSeconds), fmtSec(u.RunSeconds))
	}
	return bw.err
}

// clip truncates s to at most n bytes, marking the cut with '…'.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}

// fmtSec renders host seconds compactly: micro-scale runs keep enough
// digits to be legible, long runs don't drown in precision.
func fmtSec(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.001:
		return fmt.Sprintf("%.6f", v)
	case v < 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// errWriter folds write errors so render code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
