package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// declaration mirrors BENCHMARK.json at the repository root.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var d declaration
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSON(t *testing.T) {
	d := loadDeclaration(t)
	if len(d.Workloads) < 2 || len(d.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(d.Workloads))
	}
	if len(d.EndToEnd) < 1 || len(d.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(d.EndToEnd))
	}
	if len(d.PerLayer) < 1 || len(d.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(d.PerLayer))
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", d.RunSeconds)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", d.Paths)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the name grammar", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range d.Workloads {
		unique(w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("declared workload %q does not exist", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d exist", len(d.Workloads), len(workloads))
	}
	setup := false
	for _, m := range d.EndToEnd {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %q: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" in s, lower is better`)
	}
	for _, m := range d.PerLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("per-layer metric %q: bad unit %q, direction %q or a bound", m.Name, m.Unit, m.Better)
		}
	}
}

// checkPrinted asserts that the printed report holds every declared
// metric as "name value unit" with a finite value, and ends with the
// JSON result.
func checkPrinted(t *testing.T, res *result, want []declaredMetric) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	printed := map[string][]string{}
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 {
			printed[f[0]] = f[1:]
		}
	}
	for _, m := range want {
		p, ok := printed[m.Name]
		if !ok {
			t.Errorf("metric %q not printed", m.Name)
			continue
		}
		v, err := strconv.ParseFloat(p[0], 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("metric %q: value %q is not a finite number", m.Name, p[0])
		}
		if p[1] != m.Unit {
			t.Errorf("metric %q: unit %q, declared %q", m.Name, p[1], m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &decoded); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := decoded[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(decoded) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", decoded)
	}
}

// TestSmoke runs every workload at short scale for a single pass and
// one traced run, and checks what they print.
func TestSmoke(t *testing.T) {
	d := loadDeclaration(t)
	for _, w := range workloads {
		res, err := run(runConfig{w: w, seed: 1, short: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
			t.Errorf("%s: attempted %d, failed %d", w.name, res.Attempted, res.Failed)
		}
		checkPrinted(t, res, d.EndToEnd)
	}

	out := t.TempDir()
	w, _ := findWorkload("profile")
	res, err := run(runConfig{w: w, seed: 1, short: true, traced: true, out: out})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("traced run: failed %d", res.Failed)
	}
	checkPrinted(t, res, d.PerLayer)
	for _, suffix := range []string{".cpu.pprof", ".layers.json", ".spans.json", ".chrome.json"} {
		b, err := os.ReadFile(filepath.Join(out, "profile"+suffix))
		if err != nil {
			t.Error(err)
			continue
		}
		if strings.HasSuffix(suffix, ".json") && !json.Valid(b) {
			t.Errorf("%s is not valid JSON", suffix)
		}
	}
}

// TestGolden reruns one recorded full-scale pass and compares its rows
// with the golden file.
func TestGolden(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("profile")
	seed := passSeed(goldenSeeds[0], 0)
	want, ok := g.lookup(w.name, seed)
	if !ok {
		t.Fatalf("golden file has no %s pass at seed %d", w.name, seed)
	}
	rec := runPass(w, seed, false, false, timed)
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	if a, f := checkPass(rec, want, g, w.name); a == 0 || f != 0 {
		t.Errorf("golden pass: %d rows, %d differ", a, f)
	}
}
