package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The folder reads the text that `go tool pprof -traces` prints for a
// CPU profile and charges every sample twice: once exclusively, to the
// layer of the innermost frame that belongs to this repository, and
// once inclusively, to every public call whose function appears
// anywhere on the stack. Layers are the repository's packages, so a
// layer's share is the host CPU its own code (plus the runtime work it
// called, such as allocation and copying) cost.

const modulePrefix = "hyperhammer"

// calls maps each reported public call to the function symbols that
// count as being inside it. A sample is charged to a call at most once,
// however many of its symbols the stack holds.
var calls = []struct {
	name    string
	symbols []string
}{
	{"kvm.NewHost", []string{"hyperhammer/internal/kvm.NewHost"}},
	{"kvm.CreateVM", []string{"hyperhammer/internal/kvm.(*Host).CreateVM"}},
	{"kvm.Destroy", []string{"hyperhammer/internal/kvm.(*VM).Destroy"}},
	{"kvm.BackgroundChurn", []string{"hyperhammer/internal/kvm.(*Host).BackgroundChurn"}},
	{"guest.FillPages", []string{
		"hyperhammer/internal/guest.(*OS).FillPages",
		"hyperhammer/internal/guest.(*OS).FillPagesSelf",
	}},
	{"guest.MapDMA", []string{"hyperhammer/internal/guest.(*OS).MapDMA"}},
	{"guest.ReleaseHugepage", []string{"hyperhammer/internal/guest.(*OS).ReleaseHugepage"}},
	{"guest.Exec", []string{"hyperhammer/internal/guest.(*OS).Exec"}},
	{"guest.Hammer", []string{
		"hyperhammer/internal/guest.(*OS).Hammer",
		"hyperhammer/internal/guest.(*OS).HammerMany",
		"hyperhammer/internal/guest.(*OS).HammerBatch",
		"hyperhammer/internal/guest.(*OS).HammerScanPairs",
	}},
	{"guest.ScanForFlips", []string{"hyperhammer/internal/guest.(*OS).ScanForFlips"}},
	{"guest.AppendMappingChanges", []string{"hyperhammer/internal/guest.(*OS).AppendMappingChanges"}},
	{"attack.Profile", []string{"hyperhammer/internal/attack.Profile"}},
	{"attack.PageSteer", []string{"hyperhammer/internal/attack.PageSteer"}},
	{"attack.Exploit", []string{"hyperhammer/internal/attack.Exploit"}},
	{"simtime.Advance", []string{
		"hyperhammer/internal/simtime.(*Clock).Advance",
		"hyperhammer/internal/simtime.(*Clock).Charge",
	}},
	{"inspect.Evaluate", []string{"hyperhammer/internal/inspect.(*Inspector).Evaluate"}},
	{"metrics.Snapshot", []string{"hyperhammer/internal/metrics.(*Registry).Snapshot"}},
	{"runartifact.Write", []string{"hyperhammer/internal/runartifact.(*Artifact).Write"}},
}

// Fold is a folded CPU profile: seconds per layer and per call.
type Fold struct {
	Total  float64            `json:"totalSeconds"`
	Layers map[string]float64 `json:"layers"`
	Calls  map[string]float64 `json:"calls"`
}

// foldTraces parses `go tool pprof -traces` output.
func foldTraces(r io.Reader) (*Fold, error) {
	f := &Fold{Layers: map[string]float64{}, Calls: map[string]float64{}}
	var (
		value  float64
		frames []string
		inBody bool
	)
	flush := func() {
		if len(frames) > 0 {
			f.add(value, frames)
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBody = true
		case !inBody || strings.TrimSpace(line) == "":
			// Header lines (File:, Type:, Duration:) precede the first
			// separator.
		case len(frames) == 0:
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("fold: malformed sample line %q", line)
			}
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, err
			}
			value = v
			frames = append(frames, frameName(strings.TrimSpace(line)[len(fields[0]):]))
		default:
			frames = append(frames, frameName(line))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fold: %w", err)
	}
	flush()
	return f, nil
}

// frameName trims the indentation and pprof's inline marker. The name
// itself may contain spaces: generic instantiations print their shape
// type, e.g. "pkg.f[go.shape.struct { A int; B int }]".
func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}

// add charges one stack (innermost frame first) with v seconds.
func (f *Fold) add(v float64, frames []string) {
	f.Total += v
	f.Layers[layerOf(frames)] += v
	for _, c := range calls {
		if onStack(frames, c.symbols) {
			f.Calls[c.name] += v
		}
	}
}

// layerOf names the layer a stack is charged to: the package of its
// innermost repository frame, else "gc" for the collector's background
// workers, else "other" (scheduler, syscalls, the benchmark harness).
func layerOf(frames []string) string {
	for _, fr := range frames {
		if pkg := packageOf(fr); pkg == modulePrefix || strings.HasPrefix(pkg, modulePrefix+"/") {
			return layerName(pkg)
		}
	}
	for _, fr := range frames {
		if strings.HasPrefix(fr, "runtime.gcBgMarkWorker") || strings.HasPrefix(fr, "runtime.bgsweep") ||
			strings.HasPrefix(fr, "runtime.bgscavenge") {
			return "gc"
		}
	}
	return "other"
}

// packageOf returns a frame's import path: everything before the first
// dot after the last slash, looking only at the part before any type
// argument list (which may itself hold slashes and dots).
func packageOf(frame string) string {
	head := frame
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// layerName maps an import path of this repository to its layer:
// "hyperhammer/internal/dram" → "dram", "hyperhammer/experiments" →
// "experiments", the root package → "hyperhammer".
func layerName(pkg string) string {
	if pkg == modulePrefix {
		return modulePrefix
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

func onStack(frames, symbols []string) bool {
	for _, fr := range frames {
		for _, s := range symbols {
			if fr == s {
				return true
			}
		}
	}
	return false
}

// parseDuration reads a pprof sample value such as "130ms" or "1.20s".
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"mins", 60}, {"hrs", 3600}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("fold: bad sample value %q", s)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("fold: bad sample value %q", s)
}
