package benchfmt

import (
	"math"
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hyperhammer
cpu: Intel(R) Xeon(R) CPU
BenchmarkTable1MemoryProfiling-8   	       1	1524000000 ns/op	        52.00 bits_found	        68.20 sim_hours/profile	 5242880 B/op	    1024 allocs/op
BenchmarkSteerShort   	      10	  52400000 ns/op
--- BENCH: BenchmarkNoise
    bench_test.go:42: some log line
PASS
ok  	hyperhammer	12.345s
`

func TestParse(t *testing.T) {
	out, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %+v", out.Benchmarks)
	}
	b := out.Benchmarks[0]
	if b.Name != "BenchmarkTable1MemoryProfiling" || b.Procs != 8 || b.Runs != 1 {
		t.Errorf("bench 0 = %+v", b)
	}
	for unit, want := range map[string]float64{
		"ns/op": 1524000000, "bits_found": 52,
		"sim_hours/profile": 68.2, "B/op": 5242880, "allocs/op": 1024,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("%s = %v, want %v", unit, got, want)
		}
	}
	b1 := out.Benchmarks[1]
	if b1.Name != "BenchmarkSteerShort" || b1.Procs != 1 || b1.Runs != 10 {
		t.Errorf("bench 1 = %+v", b1)
	}
	if b1.Metrics["ns/op"] != 52400000 {
		t.Errorf("bench 1 metrics = %+v", b1.Metrics)
	}
}

func TestParseEmptyAndGarbage(t *testing.T) {
	out, err := Parse(strings.NewReader("FAIL\nsomething else\nBenchmarkBroken trailing junk\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 0 {
		t.Errorf("out = %+v", out)
	}
}

// TestParseCPUSuffix is the regression test for -cpu runs: names like
// BenchmarkX-8-4 must neither be dropped nor keep the machine-specific
// suffix, so artifacts diff stably across machines.
func TestParseCPUSuffix(t *testing.T) {
	in := `BenchmarkHammer-8-4   	     100	  1200 ns/op
BenchmarkHammer-8   	     100	  1100 ns/op
ok  	hyperhammer	1.0s
`
	out, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 2 {
		t.Fatalf("-cpu lines dropped: %+v", out.Benchmarks)
	}
	if out.Benchmarks[0].Name != "BenchmarkHammer" || out.Benchmarks[0].Procs != 4 {
		t.Errorf("bench 0 = %+v", out.Benchmarks[0])
	}
	if out.Benchmarks[1].Name != "BenchmarkHammer" || out.Benchmarks[1].Procs != 8 {
		t.Errorf("bench 1 = %+v", out.Benchmarks[1])
	}
	// ByName keys both under one stable name, keeping the lowest-proc run.
	by := out.ByName()
	if len(by) != 1 || by["BenchmarkHammer"].Procs != 4 {
		t.Errorf("ByName = %+v", by)
	}
}

// TestParseSkipsUnparsableMetricPairs: a stray token inside a line no
// longer discards the whole benchmark.
func TestParseSkipsUnparsableMetricPairs(t *testing.T) {
	out, err := Parse(strings.NewReader("BenchmarkOdd-8 5 100 ns/op extra\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 1 || out.Benchmarks[0].Metrics["ns/op"] != 100 {
		t.Errorf("out = %+v", out.Benchmarks)
	}
}

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX", "BenchmarkX", 1},
		{"BenchmarkX-y", "BenchmarkX-y", 1},
		{"Benchmark-Sub-16", "Benchmark-Sub", 16},
		{"BenchmarkX-8-4", "BenchmarkX", 4},
		{"BenchmarkFoo/size=1024-8", "BenchmarkFoo/size=1024", 8},
		{"BenchmarkFoo/1024-8", "BenchmarkFoo/1024", 8},
	} {
		name, procs := SplitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("SplitProcs(%q) = %q,%d want %q,%d", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

// FuzzParse: any input parses without panicking, and every metric it
// keeps is finite. NaN and Inf tokens parse as floats but no gate can
// compare them; they must be skipped like any other malformed metric.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("BenchmarkY-8 1 NaN x/op\n")
	f.Add("BenchmarkZ 2 -Inf ns/op 3 +Inf B/op 1e999 allocs/op\n")
	if data, err := os.ReadFile("../../bench_output.txt"); err == nil {
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, in string) {
		out, err := Parse(strings.NewReader(in))
		if err != nil {
			return // an over-long line is reported, not a crash
		}
		for _, b := range out.Benchmarks {
			for unit, v := range b.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s keeps a non-finite %s: %v", b.Name, unit, v)
				}
			}
		}
	})
}

func TestParseSkipsNonFinite(t *testing.T) {
	out, err := Parse(strings.NewReader("BenchmarkY-8 1 NaN x/op 5 ns/op +Inf B/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %+v", out.Benchmarks)
	}
	if m := out.Benchmarks[0].Metrics; len(m) != 1 || m["ns/op"] != 5 {
		t.Errorf("metrics = %v, want only ns/op", m)
	}
}
