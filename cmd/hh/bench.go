package main

// The benchmark-log subcommands.
//
// hh benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so CI can archive benchmark results
// (including the custom sim-time metrics the harness reports via
// b.ReportMetric) and diff them across commits with hh diff. Parsing
// and the document schema live in internal/benchfmt.
//
//	go test -bench . -benchmem | hh benchjson -o BENCH_full.json
//	hh benchjson bench.txt                  # read a saved log, JSON to stdout
//
// Exit status: 0 on success, 1 on a read or write error (an existing
// -o file is then left as it was), 2 on usage errors.
//
// hh hotpath is the hammer hot-path CI gate. It reads two bench logs —
// the committed bench_output.txt and a fresh run of the hot-path
// benchmarks — and enforces two invariants:
//
//  1. The benchmarks named in -zero-alloc report 0 allocs/op in the
//     fresh log: the steady-state hammer path must not allocate per
//     operation.
//  2. The -compare benchmark's ns/op in the fresh log has not
//     regressed more than -bench-tol (relative) against the committed
//     log, using the same tolerance rule hh diff and hh trend apply
//     (runartifact.WithinTol). Improvements never fail the gate.
//
//	hh hotpath -committed bench_output.txt -fresh hotpath_bench.txt \
//	    -zero-alloc BenchmarkHammerOp,BenchmarkHammerBatch,BenchmarkHammerTRRAudit \
//	    -compare BenchmarkTable3AttackCost -bench-tol 0.25
//
// Exit status: 0 when both invariants hold, 1 when either fails or a
// log cannot be read, 2 on usage errors.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"hyperhammer/internal/benchfmt"
	"hyperhammer/internal/runartifact"
)

func cmdBenchJSON(args []string) int {
	fs := newFlags("benchjson", "usage: hh benchjson [-o out.json] [bench.txt]")
	outPath := fs.String("o", "", "write the document to this file instead of stdout")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	in := io.Reader(os.Stdin)
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail("benchjson", 1, err)
		}
		defer f.Close()
		in = f
	default:
		fs.Usage()
		return 2
	}

	out, err := benchfmt.Parse(in)
	if err != nil {
		return fail("benchjson", 1, err)
	}
	write := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	if *outPath != "" {
		err = runartifact.WriteFileAtomic(*outPath, write)
	} else {
		err = write(os.Stdout)
	}
	if err != nil {
		return fail("benchjson", 1, err)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "hh benchjson: warning: no benchmark lines found")
	}
	return 0
}

func cmdHotpath(args []string) int {
	fs := newFlags("hotpath", "")
	committedPath := fs.String("committed", "bench_output.txt", "committed benchmark log (the reference)")
	freshPath := fs.String("fresh", "", "fresh benchmark log to check (required)")
	zeroAlloc := fs.String("zero-alloc", "", "comma-separated benchmarks that must report 0 allocs/op in the fresh log")
	compare := fs.String("compare", "", "benchmark whose fresh ns/op is checked against the committed log")
	benchTol := fs.Float64("bench-tol", 0.25, "relative ns/op regression tolerance for -compare")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "hh hotpath: -fresh is required")
		return 2
	}
	fresh, err := parseLog(*freshPath)
	if err != nil {
		return fail("hotpath", 1, err)
	}

	failed := false
	for _, name := range strings.Split(*zeroAlloc, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, ok := fresh[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "hh hotpath: FAIL %s: not found in fresh log\n", name)
			failed = true
			continue
		}
		if allocs := b.Metrics["allocs/op"]; allocs != 0 {
			fmt.Fprintf(os.Stderr, "hh hotpath: FAIL %s: %g allocs/op, want 0 (run with -benchmem)\n", name, allocs)
			failed = true
		} else {
			fmt.Printf("hh hotpath: ok   %s: 0 allocs/op (%.1f ns/op)\n", name, b.Metrics["ns/op"])
		}
	}

	if *compare != "" {
		committed, err := parseLog(*committedPath)
		if err != nil {
			return fail("hotpath", 1, err)
		}
		ref, okRef := committed[*compare]
		cur, okCur := fresh[*compare]
		switch {
		case !okRef:
			fmt.Fprintf(os.Stderr, "hh hotpath: FAIL %s: not found in committed log %s\n", *compare, *committedPath)
			failed = true
		case !okCur:
			fmt.Fprintf(os.Stderr, "hh hotpath: FAIL %s: not found in fresh log %s\n", *compare, *freshPath)
			failed = true
		default:
			refNs, curNs := ref.Metrics["ns/op"], cur.Metrics["ns/op"]
			// One-sided: only a slowdown beyond the tolerance fails.
			if curNs > refNs && !runartifact.WithinTol(refNs, curNs, *benchTol, 0) {
				fmt.Fprintf(os.Stderr, "hh hotpath: FAIL %s: %.0f ns/op vs committed %.0f (+%.1f%%, tol %.0f%%)\n",
					*compare, curNs, refNs, 100*(curNs/refNs-1), 100**benchTol)
				failed = true
			} else {
				fmt.Printf("hh hotpath: ok   %s: %.0f ns/op vs committed %.0f (%+.1f%%)\n",
					*compare, curNs, refNs, 100*(curNs/refNs-1))
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// parseLog reads a `go test -bench` log, indexed by benchmark name.
func parseLog(path string) (map[string]benchfmt.Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := benchfmt.Parse(f)
	if err != nil {
		return nil, err
	}
	return out.ByName(), nil
}
