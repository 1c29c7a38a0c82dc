// Command bench is the repository's benchmark. It runs the paper's
// experiments through the same public entry points hh-tables uses and
// reports what a user of the simulator waits for: host time, CPU,
// memory and set-up cost, end to end, and, in a traced run, where that
// host time goes layer by layer.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload table3 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 2 --seconds 20 --trace 1
//	bash bench/run.sh --write-golden bench/testdata/golden.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md describes the
// workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
)

func main() {
	name := flag.String("workload", "", "workload to run: table3, steer, profile, observed, or all")
	seed := flag.Uint64("seed", 1, "run seed; every pass seed derives from it")
	secs := flag.Float64("seconds", 20, "how long the timed passes run")
	traced := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end ones")
	out := flag.String("out", ".bench_build/trace", "directory for the outputs of a traced run")
	golden := flag.String("write-golden", "", "record the golden row digests to this file and exit")
	flag.Parse()

	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fail(err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *name == "all" {
		runAll()
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	g, err := loadGolden()
	if err != nil {
		fail(err)
	}
	res, err := run(runConfig{w: w, seed: *seed, seconds: *secs, traced: *traced == 1, out: *out, golden: g})
	if err != nil {
		fail(err)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fail(err)
	}
}

// printResult writes one "name value unit" line per metric, then the
// result as one line of JSON.
func printResult(w io.Writer, res *result) error {
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%s %v %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload in its own process, one after another, so
// that peak RSS stays a per-workload figure.
func runAll() {
	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fail(fmt.Errorf("workload %s: %w", w.name, err))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hhbench:", err)
	os.Exit(1)
}
