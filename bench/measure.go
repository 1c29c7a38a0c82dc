package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is the process's host-side counters at one instant.
type hostSample struct {
	at                    time.Time
	cpu                   float64 // user+system seconds
	allocBytes, allocObjs uint64
	gcCycles              uint64
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func sampleHost() hostSample {
	metrics.Read(runtimeMetrics)
	return hostSample{
		at:         time.Now(),
		cpu:        cpuSeconds(),
		allocBytes: runtimeMetrics[0].Value.Uint64(),
		allocObjs:  runtimeMetrics[1].Value.Uint64(),
		gcCycles:   runtimeMetrics[2].Value.Uint64(),
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from
// the current resident set (Linux 4.0 and later), so that a pass's peak
// is its own. When the reset is refused, peakRSSMB reports the
// process-lifetime peak, which can only overstate a pass's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM, in KiB) from
// /proc/self/status.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kib, _ := strconv.ParseFloat(f[1], 64)
			return kib / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one interval of the benchmark's own timeline, in seconds
// since the run started. Spans are kept in memory and written once the
// run ends, so recording them costs the measured code nothing.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

type timeline struct {
	t0    time.Time
	spans []span
}

func newTimeline() *timeline { return &timeline{t0: time.Now()} }

// add records a span from start to end and returns its id.
func (tl *timeline) add(parent int, name string, start, end time.Time) int {
	id := len(tl.spans) + 1
	tl.spans = append(tl.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(tl.t0).Seconds(), End: end.Sub(tl.t0).Seconds()})
	return id
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
