package runartifact

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// baselineDir holds the committed perf-gate baselines.
var baselineDir = filepath.Join("..", "..", "testdata", "baselines")

// TestCommittedBaselinesIdentity pins the identity of the committed
// baselines: their config and content hashes, every section
// fingerprint, and how many figures a self-compare lists. The run store
// keys stored runs by exactly these values, so a change to the section
// table, a flattening or a hash that would re-key stored history fails
// here.
func TestCommittedBaselinesIdentity(t *testing.T) {
	for _, tc := range []struct {
		file            string
		config, content string
		fingerprints    map[string]float64
		deltas          int
	}{
		{"short-seed4.json", "59045c2f98d1c533", "6183f22bea35f5bf", map[string]float64{
			"alerts":    2.34689038587131e+15,
			"census":    1.035694090728858e+15,
			"counters":  2.222267944553357e+15,
			"forensics": 2.373164654023e+12,
			"heatmap":   3.59882823410922e+14,
			"outcome":   3.20518277647474e+14,
			"profile":   9.20724205897459e+14,
		}, 194},
		{"short-escape.json", "098417e88a516f68", "b90e6c23c335b66c", map[string]float64{
			"alerts":    1.714746428137888e+15,
			"census":    6.5411351024957e+13,
			"counters":  3.547347826517986e+15,
			"forensics": 4.1585121392272e+14,
			"heatmap":   4.388025904164497e+15,
			"outcome":   3.98152315063227e+14,
			"profile":   1.460688796017567e+15,
		}, 199},
	} {
		a, err := ReadFile(filepath.Join(baselineDir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := a.ComputeConfigHash(); got != tc.config {
			t.Errorf("%s: ComputeConfigHash = %s, want %s", tc.file, got, tc.config)
		}
		if got := a.ContentHash(); got != tc.content {
			t.Errorf("%s: ContentHash = %s, want %s", tc.file, got, tc.content)
		}
		if got := a.Fingerprints(); !reflect.DeepEqual(got, tc.fingerprints) {
			t.Errorf("%s: Fingerprints = %v, want %v", tc.file, got, tc.fingerprints)
		}
		if got := len(Compare(a, a, Tolerances{}).Deltas); got != tc.deltas {
			t.Errorf("%s: self-compare lists %d figures, want %d", tc.file, got, tc.deltas)
		}
	}
}

// FuzzRead: Read never panics, and any document it accepts re-encodes
// and re-reads to the same ContentHash.
func FuzzRead(f *testing.F) {
	for _, name := range []string{"short-seed4.json", "short-escape.json"} {
		data, err := os.ReadFile(filepath.Join(baselineDir, name))
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{len(data), len(data) / 2, len(data) / 16, 100} {
			f.Add(data[:n])
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		a, err := Read(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
		b, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded document does not re-read: %v", err)
		}
		if a.ContentHash() != b.ContentHash() {
			t.Fatal("ContentHash changed through a re-encode")
		}
	})
}
