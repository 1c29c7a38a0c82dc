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

	"hyperhammer/internal/runartifact"
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

// TestSteerRejectsNoBlocks: a -blocks below 1 is a usage error caught
// before the 16 GiB host boots, not a divide by zero after it.
func TestSteerRejectsNoBlocks(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		if status := dispatch([]string{"steer", "-blocks", v}, io.Discard); status != 2 {
			t.Errorf("hh steer -blocks %s = %d, want 2", v, status)
		}
	}
}

// TestSteerRejectsTooManyBlocks: a -blocks above the VM's free
// hugepages minus one (6,623 on S1's 13 GiB VM) would make the release
// stride 0. It is a usage error caught right after boot, before the
// 60,000 exhaustion mappings.
func TestSteerRejectsTooManyBlocks(t *testing.T) {
	if status := dispatch([]string{"steer", "-blocks", "6624"}, io.Discard); status != 2 {
		t.Errorf("hh steer -blocks 6624 = %d, want 2", status)
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
	s.publish(func() *runartifact.Artifact { return s.newArtifact("hyperhammer", 4, true) },
		func() *sched.Schedule { return nil })

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
		{"trend", cmdTrend, []string{"-store", missing}, 2},
		{"bisect", cmdBisect, []string{"-store", missing, "run-a", "run-b"}, 2},
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
// the command as it is typed, whether the runs match or not.
func TestDiffSummaryLine(t *testing.T) {
	baseline := filepath.Join("..", "..", "testdata", "baselines", "short-seed4.json")
	oldRun := writeTemp(t, "old.json", `{"version":1,"tool":"hyperhammer","seed":4,"simSeconds":1.5,"metrics":{}}`)
	newRun := writeTemp(t, "new.json", `{"version":1,"tool":"hyperhammer","seed":4,"simSeconds":2.5,"metrics":{}}`)
	for _, tc := range []struct {
		old, new   string
		status     int
		wantPrefix string
	}{
		{baseline, baseline, 0, "hh diff: "},
		{oldRun, newRun, 1, "hh diff: 1 of 1 figures beyond tolerance"},
	} {
		out, status := captureStdout(t, func() int { return cmdDiff([]string{tc.old, tc.new}) })
		if status != tc.status {
			t.Errorf("hh diff %s %s exit status %d, want %d", tc.old, tc.new, status, tc.status)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, tc.wantPrefix) {
			t.Errorf("hh diff %s %s summary = %q, want prefix %q", tc.old, tc.new, last, tc.wantPrefix)
		}
	}
}

// captureStdout runs f with os.Stdout sent to a file and returns what
// it printed and its exit status.
func captureStdout(t *testing.T, f func() int) (string, int) {
	t.Helper()
	file, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	stdout := os.Stdout
	os.Stdout = file
	status := f()
	os.Stdout = stdout
	data, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), status
}
