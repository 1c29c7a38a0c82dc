package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"hyperhammer"
)

// layers are the packages a traced run reports a CPU share for.
// Packages that take well under 1% of every workload (sched, hostload,
// hammer, dramdig, mitigation, balloon, xenlite, memdef) are charged to
// "other" with everything else outside the list.
var layers = []string{
	"attack", "guest", "kvm", "ept", "viommu", "virtio", "buddy", "phys", "dram", "simtime",
	"inspect", "metrics", "forensics", "ledger", "trace", "profile", "runartifact",
	"experiments", "gc", "other",
}

// counters are the registry families a traced run reports per op.
var counters = []struct{ name, family string }{
	{"dram.activations", "dram_activations_total"},
	{"dram.hammer_ops", "dram_hammer_ops_total"},
	{"dram.flips", "dram_flips_total"},
	{"kvm.hammer_rounds", "hammer_rounds_total"},
	{"kvm.vms_created", "vms_created_total"},
	{"buddy.allocs", "buddy_allocs_total"},
	{"buddy.frees", "buddy_frees_total"},
	{"ept.translations", "ept_translations_total"},
	{"ept.splits", "ept_splits_total"},
	{"virtio.plugs", "virtio_plugs_total"},
	{"virtio.unplugs", "virtio_unplugs_total"},
	{"attack.attempts", "attack_attempts_total"},
}

// layerMetrics writes the traced outputs and folds them into the
// per-layer metrics: CPU shares from the profiled passes, work counts
// from the counted warm-up pass.
func layerMetrics(cfg runConfig, warm passRecord, recs []passRecord, tl *timeline) (map[string]metric, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.out, cfg.w.name)
	fold, err := foldProfiles(base+".cpu.pprof", recs)
	if err != nil {
		return nil, err
	}

	var crit, eff, deliver, wait, gcs, mallocs []float64
	var cpu float64
	ops := 0
	for _, r := range recs {
		gcs = append(gcs, r.gcCycles)
		mallocs = append(mallocs, r.mallocs)
		cpu += r.cpu
		ops += r.ops
		pr := hyperhammer.BuildPlanReport(r.schedule)
		crit = append(crit, pr.CriticalPathSeconds)
		eff = append(eff, pr.Efficiency)
		deliver = append(deliver, pr.DeliverSeconds)
		q := 0.0
		for _, u := range pr.Units {
			q += u.QueueWaitSeconds
		}
		wait = append(wait, q)
	}

	m := map[string]metric{}
	unlisted := fold.Total
	for _, l := range layers {
		unlisted -= fold.Layers[l]
	}
	for _, l := range layers {
		v := fold.Layers[l]
		if l == "other" {
			v += unlisted
		}
		m[l+".cpu_pct"] = metric{ratio(100*v, fold.Total), "%"}
	}
	for _, c := range calls {
		m["call."+c.name+".cpu_pct"] = metric{ratio(100*fold.Calls[c.name], fold.Total), "%"}
	}
	perOp := func(family string) float64 { return ratio(warm.counts[family], float64(warm.ops)) }
	for _, c := range counters {
		m[c.name+"_per_op"] = metric{perOp(c.family), "count/op"}
	}
	// Layer CPU per op over the profiled passes, per unit of work per op
	// in the counted one.
	m["kvm.ms_per_vm"] = metric{ratio(1e3*fold.Layers["kvm"]/float64(ops), perOp("vms_created_total")), "ms"}
	m["ept.ns_per_translation"] = metric{ratio(1e9*fold.Layers["ept"]/float64(ops), perOp("ept_translations_total")), "ns"}
	wall, cpuPerOp, _ := fastest(recs)
	m["traced.wall_s"] = metric{wall, "s"}
	m["traced.cpu_ms_per_op"] = metric{1e3 * cpuPerOp, "ms"}
	m["traced.sampled_pct"] = metric{ratio(100*fold.Total, cpu), "%"}
	m["plan.critical_path_s"] = metric{median(crit), "s"}
	m["plan.efficiency"] = metric{median(eff), "ratio"}
	m["plan.deliver_s"] = metric{median(deliver), "s"}
	m["plan.queue_wait_s"] = metric{median(wait), "s"}
	m["runtime.gc_cycles"] = metric{median(gcs), "count"}
	m["runtime.mallocs"] = metric{median(mallocs), "count"}

	if err := writeJSON(base+".layers.json", struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Passes   int               `json:"passes"`
		Fold     *Fold             `json:"fold"`
		Metrics  map[string]metric `json:"metrics"`
	}{cfg.w.name, cfg.seed, len(recs), fold, m}); err != nil {
		return nil, err
	}
	if err := writeJSON(base+".spans.json", tl.spans); err != nil {
		return nil, err
	}
	var chrome bytes.Buffer
	if err := hyperhammer.WriteChromeTrace(&chrome, recs[0].schedule); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".chrome.json", chrome.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// foldProfiles merges the passes' CPU profiles into path and folds the
// merged profile with `go tool pprof -traces`.
func foldProfiles(path string, recs []passRecord) (*Fold, error) {
	args := []string{"tool", "pprof", "-proto", "-output", path}
	for i, r := range recs {
		p := fmt.Sprintf("%s.%d", path, i)
		if err := os.WriteFile(p, r.profile, 0o644); err != nil {
			return nil, err
		}
		defer os.Remove(p)
		args = append(args, p)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("merging CPU profiles: %v: %s", err, out)
	}
	var traces, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &traces, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("reading CPU profile: %v: %s", err, stderr.Bytes())
	}
	return foldTraces(&traces)
}
