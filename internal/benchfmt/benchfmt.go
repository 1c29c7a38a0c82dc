// Package benchfmt parses `go test -bench` text output into per-
// benchmark metrics, the figures hh hotpath gates.
//
// Benchmark names are normalized for cross-machine stability: the
// test binary appends a -GOMAXPROCS suffix to every name, and a -cpu
// list multiplies the same benchmark across several such suffixes
// (BenchmarkX-8, BenchmarkX-8-4, ...). All trailing -N groups of the
// final path segment are stripped into the Procs field, so the same
// benchmark compares under the same key no matter which machine or -cpu
// setting produced it.
package benchfmt

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with any -GOMAXPROCS/-cpu suffixes
	// stripped (the stable cross-machine key).
	Name string
	// Procs is the GOMAXPROCS the benchmark ran under (the outermost
	// stripped suffix; 1 when the name carried none).
	Procs int
	// Runs is the iteration count (b.N).
	Runs int64
	// Metrics maps unit to value: ns/op, B/op, allocs/op, and any
	// custom units from b.ReportMetric (e.g. sim_hours/profile).
	Metrics map[string]float64
}

// Output is one parsed log: its benchmark lines in input order.
type Output struct {
	Benchmarks []Benchmark
}

// ByName indexes the benchmarks by normalized name. When a -cpu list
// produced several entries for one name, the entry with the fewest
// procs wins (the most comparable single-threaded figure).
func (o *Output) ByName() map[string]Benchmark {
	out := make(map[string]Benchmark, len(o.Benchmarks))
	for _, b := range o.Benchmarks {
		if prev, ok := out[b.Name]; ok && prev.Procs <= b.Procs {
			continue
		}
		out[b.Name] = b
	}
	return out
}

// Parse reads `go test -bench` output and extracts every benchmark
// line in input order. Other lines (headers, test logs, PASS markers)
// are skipped.
func Parse(r io.Reader) (*Output, error) {
	out := &Output{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if b, ok := parseBench(line); ok {
			out.Benchmarks = append(out.Benchmarks, b)
		}
	}
	return out, sc.Err()
}

// parseBench parses one result line:
//
//	BenchmarkName-8  3  123456 ns/op  42.5 sim_hours/profile  16 B/op  2 allocs/op
//
// A malformed metric pair is skipped rather than dropping the whole
// line, so a benchmark that logged a stray token still contributes its
// parseable metrics. A NaN or infinite value counts as malformed: no
// gate can compare it.
func parseBench(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name, procs := SplitProcs(fields[0])
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Procs: procs, Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// SplitProcs strips the trailing -N GOMAXPROCS suffixes off a
// benchmark name. Repeated numeric suffixes (BenchmarkX-8-4 from a
// -cpu run) are all stripped; the reported proc count is the
// outermost suffix, the GOMAXPROCS the line actually ran under.
// Sub-benchmark segments keep their numeric names: stripping never
// crosses a '/' and never leaves an empty name.
func SplitProcs(name string) (string, int) {
	procs := 0
	for {
		i := strings.LastIndexByte(name, '-')
		if i <= 0 || name[i-1] == '/' {
			break
		}
		n, err := strconv.Atoi(name[i+1:])
		if err != nil || n <= 0 {
			break
		}
		name = name[:i]
		if procs == 0 {
			procs = n
		}
	}
	if procs == 0 {
		procs = 1
	}
	return name, procs
}
