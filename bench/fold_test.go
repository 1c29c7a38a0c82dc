package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fold, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	near("total", fold.Total, 1.75)
	wantLayers := map[string]float64{
		// The innermost repository frame wins over the runtime frames
		// below it and the callers above it.
		"phys": 0.13,
		// The collector's background worker has no repository frame.
		"gc": 0.02,
		// Scheduler idling plus the benchmark harness's own frames.
		"other": 0.36,
		// A generic instantiation whose shape type holds spaces and
		// slashes still belongs to its own package.
		"experiments": 0.04,
		// Inlined frames count like any other.
		"simtime": 1.20,
	}
	for l, want := range wantLayers {
		near("layer "+l, fold.Layers[l], want)
	}
	if len(fold.Layers) != len(wantLayers) {
		t.Errorf("layers = %v, want exactly %v", fold.Layers, wantLayers)
	}
	wantCalls := map[string]float64{
		"kvm.NewHost": 0.13,
		// FillPages and FillPagesSelf are both on the stack; the sample
		// is charged to the call once.
		"guest.FillPages": 1.20,
		"simtime.Advance": 1.20,
		"attack.Profile":  1.20,
	}
	for _, c := range calls {
		near("call "+c.name, fold.Calls[c.name], wantCalls[c.name])
	}
}

func TestFoldTracesRejectsGarbage(t *testing.T) {
	in := "-----------+----\n     12parsecs   runtime.main\n"
	if _, err := foldTraces(strings.NewReader(in)); err == nil {
		t.Fatal("want an error for a malformed sample value")
	}
}

func TestPackageOf(t *testing.T) {
	for frame, want := range map[string]string{
		"hyperhammer/internal/dram.(*Module).HammerBatch": "hyperhammer/internal/dram",
		"hyperhammer/internal/kvm.NewHost":                "hyperhammer/internal/kvm",
		"hyperhammer.NewHost":                             "hyperhammer",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/maps.(*table).reset":            "internal/runtime/maps",
		"hyperhammer/experiments..F.addTyped[go.shape.struct { A hyperhammer/x.T }]": "hyperhammer/experiments",
	} {
		if got := packageOf(frame); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", frame, got, want)
		}
	}
}
