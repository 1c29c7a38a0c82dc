package main

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperhammer/internal/profile"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
	"hyperhammer/internal/sched"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDispatchUsage: no subcommand, or an unknown one, lists every
// subcommand on stderr and exits 2.
func TestDispatchUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"hyperhammer"}} {
		var stderr bytes.Buffer
		if status := dispatch(args, &stderr); status != 2 {
			t.Errorf("dispatch(%q) = %d, want 2", args, status)
		}
		for _, c := range commands {
			if !strings.Contains(stderr.String(), "\n  "+c.name+" ") {
				t.Errorf("dispatch(%q) usage does not list %q:\n%s", args, c.name, stderr.String())
			}
		}
	}
}

// TestSteerRejectsNoBlocks: a -blocks below 1 is a usage error that the
// Table-2 unit reports right after boot, before any mapping.
func TestSteerRejectsNoBlocks(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		if status := dispatch([]string{"steer", "-blocks", v}, io.Discard); status != 2 {
			t.Errorf("hh steer -blocks %s = %d, want 2", v, status)
		}
	}
}

// TestSteerRejectsNoSpray: a -spray below 1 is a usage error caught
// before boot; the Table-2 unit would read 0 as "spray everything".
func TestSteerRejectsNoSpray(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		if status := dispatch([]string{"steer", "-spray", v}, io.Discard); status != 2 {
			t.Errorf("hh steer -spray %s = %d, want 2", v, status)
		}
	}
}

// TestSteerRejectsTooManyBlocks: a -blocks above the VM's free
// hugepages minus one (6,623 on S1's 13 GiB VM) would make the release
// stride 0. It is a usage error caught right after boot, before the
// 60,000 exhaustion mappings; 6,623 itself runs.
func TestSteerRejectsTooManyBlocks(t *testing.T) {
	for _, tc := range []struct {
		blocks string
		want   int
	}{{"6624", 2}, {"6623", 0}} {
		_, status := captureStdout(t, func() int { return dispatch([]string{"steer", "-blocks", tc.blocks}, io.Discard) })
		if status != tc.want {
			t.Errorf("hh steer -blocks %s = %d, want %d", tc.blocks, status, tc.want)
		}
	}
}

// TestSteerPrintsTable2Row: hh steer runs Table 2's own unit, so at one
// of the table's (S, B) settings it prints the table's S1 row.
func TestSteerPrintsTable2Row(t *testing.T) {
	out, status := captureStdout(t, func() int {
		return dispatch([]string{"steer", "-blocks", "20", "-spray", "10"}, io.Discard)
	})
	const want = "S1 10 GB 20 10240 5238 4458 43.5% 85.1%"
	if status != 0 || !strings.Contains(strings.Join(strings.Fields(out), " "), want) {
		t.Errorf("hh steer -blocks 20 -spray 10 = %d with\n%s\nwant 0 and the row %q", status, out, want)
	}
}

func TestLoadArtifact(t *testing.T) {
	path := writeTemp(t, "art.json", `{"version":1,"tool":"hyperhammer","seed":4,"simSeconds":1.5,"metrics":{}}`)
	a, err := load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if a.Seed != 4 {
		t.Errorf("seed = %d, want 4", a.Seed)
	}
}

// A truncated artifact must produce a clear corruption message, not a
// complaint about the document's kind.
func TestLoadTruncatedArtifact(t *testing.T) {
	path := writeTemp(t, "trunc.json", `{"version":1,"tool":"hyperhammer","seed":4,"metr`)
	_, err := load(path)
	if err == nil {
		t.Fatal("load succeeded on a truncated artifact")
	}
	if !strings.Contains(err.Error(), "corrupt or truncated JSON") {
		t.Errorf("error %q does not name the corruption", err)
	}
	if strings.Contains(err.Error(), "not a run artifact") {
		t.Errorf("error %q reports a damaged artifact as another kind of document", err)
	}
}

func TestLoadEmptyFile(t *testing.T) {
	path := writeTemp(t, "empty.json", "")
	_, err := load(path)
	if err == nil {
		t.Fatal("load succeeded on an empty file")
	}
	if !strings.Contains(err.Error(), "corrupt or truncated JSON") {
		t.Errorf("error %q does not name the corruption", err)
	}
}

// TestLoadUnknownDocument: well-formed JSON that is not a run artifact,
// such as an unrelated document or a benchmark document (which has no
// version field), is refused by name, and hh diff exits 2 on it.
func TestLoadUnknownDocument(t *testing.T) {
	for _, doc := range []string{
		`{"hello":"world"}`,
		`{"generatedAt":"2026-01-01T00:00:00Z","ok":true,"benchmarks":[{"name":"BenchmarkX","procs":1,"runs":1,"metrics":{"ns/op":100}}]}`,
	} {
		path := writeTemp(t, "other.json", doc)
		_, err := load(path)
		if err == nil {
			t.Fatalf("load succeeded on %s", doc)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not a run artifact") {
			t.Errorf("error %q does not name the file and its kind", err)
		}
		if status := cmdDiff([]string{path, path}); status != 2 {
			t.Errorf("hh diff on %s exited %d, want 2", doc, status)
		}
	}
}

func TestLoadFutureArtifactVersion(t *testing.T) {
	path := writeTemp(t, "future.json", `{"version":99,"tool":"hyperhammer","metrics":{}}`)
	_, err := load(path)
	if err == nil {
		t.Fatal("load accepted an artifact from the future")
	}
	if !strings.Contains(err.Error(), "newer than supported") {
		t.Errorf("error %q does not report the version mismatch", err)
	}
}

// TestConfigNotice: the same-config context line appears exactly when
// the runs' deterministic config hashes differ, including for
// artifacts written before the header carried a hash.
func TestConfigNotice(t *testing.T) {
	mk := func(rounds string) *runartifact.Artifact {
		a := runartifact.New("hyperhammer", 4, "short")
		a.Config["hammer-rounds"] = rounds
		return a
	}
	if got := configNotice(mk("150000"), mk("150000")); got != "" {
		t.Errorf("same-config comparison produced a notice: %q", got)
	}
	got := configNotice(mk("150000"), mk("400000"))
	if !strings.Contains(got, "comparing same-config runs? no") {
		t.Errorf("different-config notice missing: %q", got)
	}

	// Stamped headers win over recomputation; a pre-hash artifact
	// (empty header field) is hashed on the fly and still matches.
	stamped := mk("150000")
	stamped.Stamp()
	if got := configNotice(stamped, mk("150000")); got != "" {
		t.Errorf("stamped-vs-legacy same-config comparison produced a notice: %q", got)
	}

	// Host-only config keys never trigger the notice (they are
	// excluded from the hash by design).
	hostOnly := mk("150000")
	hostOnly.Config["parallel"] = "8"
	if got := configNotice(mk("150000"), hostOnly); got != "" {
		t.Errorf("host-only config change produced a notice: %q", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("load succeeded on a missing file")
	}
}

// TestLoadStoredRun: load takes a file or STORE/RUN-ID and reads both
// the same way. An unknown run ID is an error naming the ref, and a ref
// into a missing store is an error that creates nothing.
func TestLoadStoredRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	art := runartifact.New("hyperhammer", 4, "short")
	art.SimSeconds = 1.5
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	st, err := runstore.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.Ingest(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{path, filepath.Join(store, e.RunID)} {
		a, err := load(ref)
		if err != nil {
			t.Fatalf("load(%s): %v", ref, err)
		}
		if a.ContentHash() != e.ContentHash {
			t.Errorf("load(%s) content %s, want %s", ref, a.ContentHash(), e.ContentHash)
		}
	}

	unknown := filepath.Join(store, "000009-feedface")
	if _, err := load(unknown); err == nil || !strings.Contains(err.Error(), unknown) {
		t.Errorf("load of an unknown run ID = %v, want an error naming %s", err, unknown)
	}
	missing := filepath.Join(dir, "nostore")
	if _, err := load(filepath.Join(missing, e.RunID)); err == nil {
		t.Error("load succeeded in a missing store")
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("load created the missing store (stat: %v)", err)
	}
}

// TestStrayArgumentIsUsageError: the subcommands that take no
// positional argument exit 2 on one before doing any work, so a value
// given to a boolean flag is not silently dropped.
func TestStrayArgumentIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-short", "extra"},
		{"tables", "-short", "-figure", "3a"},
		{"profile", "S2"},
		{"steer", "-blocks", "20", "10"},
		{"dramdig", "S1"},
	} {
		usage, status := capture(t, &os.Stderr, func() int { return dispatch(args, io.Discard) })
		if status != 2 || !strings.Contains(usage, "unexpected argument") || !strings.Contains(usage, "-seed") {
			t.Errorf("hh %s = %d with\n%s\nwant 2 and the usage", strings.Join(args, " "), status, usage)
		}
	}
}

// TestSessionCloseWritesEveryOutput: an unwritable metrics path does
// not stop close from writing the artifact and flushing the trace, and
// close still returns the metrics error.
func TestSessionCloseWritesEveryOutput(t *testing.T) {
	dir := t.TempDir()
	out := outputs{
		metrics:  filepath.Join(dir, "missing", "m.prom"),
		artifact: filepath.Join(dir, "a.json"),
		trace:    filepath.Join(dir, "t.jsonl"),
	}
	s, err := openSession("run", out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Trace.Emit("test.event", "i", i)
	}
	if err := s.publish(func() *runartifact.Artifact { return s.newArtifact("hyperhammer", 4, true) },
		func() *sched.Schedule { return nil }); err != nil {
		t.Fatal(err)
	}

	err = s.close()
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("close = %v, want the metrics path's not-exist error", err)
	}
	if a, err := runartifact.ReadFile(out.artifact); err != nil || a.Tool != "hyperhammer" {
		t.Errorf("artifact after a failed metrics write: %v, %v", a, err)
	}
	data, err := os.ReadFile(out.trace)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 3 {
		t.Errorf("trace holds %d lines, want the 3 emitted events flushed", n)
	}
}

// TestReadersNeverCreateStore: the subcommands that only read a
// run-history store fail on a missing directory with their own exit
// status and leave nothing behind.
func TestReadersNeverCreateStore(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "typo")
	for _, tc := range []struct {
		name   string
		run    func([]string) int
		args   []string
		status int
	}{
		{"trend", cmdTrend, []string{missing}, 2},
		{"bisect", cmdBisect, []string{filepath.Join(missing, "run-a"), filepath.Join(missing, "run-b")}, 2},
		{"inspect history", cmdInspect, []string{"history", missing}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if status := tc.run(tc.args); status != tc.status {
				t.Errorf("exit status %d, want %d", status, tc.status)
			}
			if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("the missing store directory was created (stat: %v)", err)
			}
		})
	}
}

// TestDiffSummaryLine: hh diff closes with a verdict line that names
// the command as it is typed and says whether any simulated figure
// moved. Host durations never gate: runs whose plans differ 10x exit 0.
func TestDiffSummaryLine(t *testing.T) {
	baseline := filepath.Join("..", "..", "testdata", "baselines", "short-seed4.json")
	oldRun := writeTemp(t, "old.json", `{"version":1,"tool":"hyperhammer","seed":4,"simSeconds":1.5,"metrics":{}}`)
	newRun := writeTemp(t, "new.json", `{"version":1,"tool":"hyperhammer","seed":4,"simSeconds":2.5,"metrics":{}}`)
	withPlan := func(name string, scale float64) string {
		a := runartifact.New("hyperhammer", 4, "short")
		a.SimSeconds = 1.5
		a.SetPlan(profile.BuildPlanReport(&sched.Schedule{
			Workers: 1, WallSeconds: 0.5 * scale, CPUSeconds: 0.4 * scale,
			Units: []sched.UnitTiming{{Name: "exp.a", EndSeconds: 0.5 * scale, Started: true, Delivered: true}},
		}))
		path := filepath.Join(t.TempDir(), name)
		if err := a.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const match = "figures compared, every simulated figure matches"
	for _, tc := range []struct {
		old, new string
		status   int
		want     string
	}{
		{baseline, baseline, 0, match},
		{oldRun, newRun, 1, "hh diff: 1 of 1 simulated figures moved"},
		{withPlan("fast.json", 1), withPlan("slow.json", 10), 0, match},
	} {
		out, status := captureStdout(t, func() int { return cmdDiff([]string{tc.old, tc.new}) })
		if status != tc.status {
			t.Errorf("hh diff %s %s exit status %d, want %d", tc.old, tc.new, status, tc.status)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, "hh diff: ") || !strings.HasSuffix(last, tc.want) {
			t.Errorf("hh diff %s %s summary = %q, want %q", tc.old, tc.new, last, tc.want)
		}
	}
}

// TestTablesNothingSelectedWritesNothing: hh tables with no experiment
// selected exits 2 before opening any output, so neither the artifact
// nor the store is created.
func TestTablesNothingSelectedWritesNothing(t *testing.T) {
	dir := t.TempDir()
	store, artifact := filepath.Join(dir, "s"), filepath.Join(dir, "e.json")
	if status := cmdTables([]string{"-store", store, "-artifact", artifact}); status != 2 {
		t.Errorf("exit status %d, want 2", status)
	}
	for _, path := range []string{store, artifact} {
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s was created (stat: %v)", path, err)
		}
	}
}

// captureStdout runs f with os.Stdout sent to a file and returns what
// it printed and its exit status.
func captureStdout(t *testing.T, f func() int) (string, int) {
	t.Helper()
	return capture(t, &os.Stdout, f)
}

// capture runs f with *stream, os.Stdout or os.Stderr, sent to a file
// and returns what f wrote there and its exit status.
func capture(t *testing.T, stream **os.File, f func() int) (string, int) {
	t.Helper()
	file, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	saved := *stream
	*stream = file
	status := f()
	*stream = saved
	data, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), status
}
