package kvm

import (
	"errors"
	"reflect"
	"testing"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/forensics"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/metrics"
)

// injectFlip fills the guest page holding gpa with ones and commits a
// 1->0 candidate flip at gpa's backing byte, returning that address.
func injectFlip(t *testing.T, vm *VM, gpa memdef.GPA) memdef.HPA {
	t.Helper()
	ones := func(int) uint64 { return ^uint64(0) }
	if err := vm.FillPagesGPA(gpa&^(memdef.PageSize-1), 1, ones); err != nil {
		t.Fatal(err)
	}
	hpa, err := vm.HypercallGPAToHPA(gpa)
	if err != nil {
		t.Fatal(err)
	}
	if n := vm.host.applyFlips([]dram.CandidateFlip{{Addr: hpa, Bit: 3, Direction: dram.FlipOneToZero}}); n != 1 {
		t.Fatalf("flip at gpa %#x did not land", gpa)
	}
	return hpa
}

// A flip in 4 KiB-backed memory is reported at the page it landed in,
// both to the guest's scan and to the forensics owner record (which
// names the frame's page): every 4 KiB backing frame maps to its own
// page GPA, whether the chunk was plugged without THP or demoted by
// the balloon.
func TestFlipAttributionIn4KBacking(t *testing.T) {
	cfg := testHostConfig()
	cfg.THP = false
	h := newTestHost(t, cfg)
	vm := newTestVM(t, h, 8*memdef.MiB)
	const gpa = memdef.GPA(0x5040)
	hpa := injectFlip(t, vm, gpa)
	flips, _ := vm.ContentFlipsSince(0)
	if len(flips) != 1 || flips[0].GPA != gpa {
		t.Errorf("THP-off scan reported %+v, want one flip at gpa %#x", flips, gpa)
	}
	if o := h.flipOwner(hpa); o.Kind != forensics.OwnerGuestFrame || o.GPA != 0x5000 {
		t.Errorf("THP-off flip owner = %+v, want guest frame at gpa 0x5000", o)
	}

	// A THP chunk the balloon demoted to 4 KiB bookkeeping.
	h = newTestHost(t, testHostConfig())
	bvm := newBalloonVM(t, h, 32*memdef.MiB)
	chunk := memdef.GPA(10 * memdef.MiB)
	if err := bvm.Balloon().Inflate(chunk); err != nil {
		t.Fatal(err)
	}
	hpa = injectFlip(t, bvm, chunk+gpa)
	flips, _ = bvm.ContentFlipsSince(0)
	if len(flips) != 1 || flips[0].GPA != chunk+gpa {
		t.Errorf("demoted-chunk scan reported %+v, want one flip at gpa %#x", flips, chunk+gpa)
	}
	if o := h.flipOwner(hpa); o.Kind != forensics.OwnerGuestFrame || o.GPA != uint64(chunk+0x5000) {
		t.Errorf("demoted-chunk flip owner = %+v, want guest frame at gpa %#x", o, chunk+0x5000)
	}
}

// batchHost boots a metered host with one 64 MiB VM whose memory holds
// all ones, so every 1->0 cell the fault model fires lands.
func batchHost(t *testing.T, fault dram.FaultModelConfig, ecc bool) (*Host, *VM, *metrics.Registry) {
	t.Helper()
	cfg := testHostConfig()
	cfg.Fault, cfg.ECC = fault, ecc
	cfg.Metrics = metrics.New()
	h := newTestHost(t, cfg)
	vm := newTestVM(t, h, 64*memdef.MiB)
	ones := func(int) uint64 { return ^uint64(0) }
	if err := vm.FillPagesGPA(0, int(64*memdef.MiB/memdef.PageSize), ones); err != nil {
		t.Fatal(err)
	}
	return h, vm, cfg.Metrics
}

// borderOps returns one same-bank consecutive-row pair per 2 MiB chunk
// from chunk first on, each hammered for rounds.
func borderOps(h *Host, first, n, rounds int) []HammerBatchOp {
	geo := h.DRAM.Geo
	offA := 6 * geo.RowSpan()
	offB := 7 * geo.RowSpan()
	for ; offB < 8*geo.RowSpan(); offB += 64 {
		if geo.Bank(memdef.HPA(offA)) == geo.Bank(memdef.HPA(offB)) {
			break
		}
	}
	ops := make([]HammerBatchOp, n)
	for i := range ops {
		base := memdef.GPA(first+i) * memdef.HugePageSize
		ops[i] = HammerBatchOp{
			Aggressors: []memdef.GPA{base + memdef.GPA(offA), base + memdef.GPA(offB)},
			Rounds:     rounds,
		}
	}
	return ops
}

// metricRows drops the EPT walk counter: a batch translates every op
// up front, so its walk count is the only figure allowed to differ
// from one-at-a-time submission.
func metricRows(reg *metrics.Registry) [][4]string {
	var out [][4]string
	for _, r := range reg.Snapshot().Rows() {
		if r[0] != "ept_translations_total" {
			out = append(out, r)
		}
	}
	return out
}

func counter(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.Sum(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}

// One batch of k ops and the same k ops submitted one at a time, on
// twin hosts, leave the same flips, clock and metrics behind.
func TestHammerBatchMatchesOneAtATime(t *testing.T) {
	fault := denseStableFault(13)
	bh, bvm, breg := batchHost(t, fault, false)
	sh, svm, sreg := batchHost(t, fault, false)
	ops := borderOps(bh, 0, 24, 250_000)
	if err := bvm.HammerBatchGPA(ops); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if err := svm.HammerBatchGPA(ops[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if len(bh.FlipLog()) == 0 {
		t.Fatal("no flips landed: the comparison is vacuous")
	}
	if !reflect.DeepEqual(bh.FlipLog(), sh.FlipLog()) {
		t.Errorf("flip logs differ: batch %d flips, one at a time %d", len(bh.FlipLog()), len(sh.FlipLog()))
	}
	if bh.Clock.Now() != sh.Clock.Now() {
		t.Errorf("clock: batch %v, one at a time %v", bh.Clock.Now(), sh.Clock.Now())
	}
	if b, s := metricRows(breg), metricRows(sreg); !reflect.DeepEqual(b, s) {
		t.Errorf("metrics differ:\nbatch:       %v\none at time: %v", b, s)
	}
}

// A machine check on op i ends the batch with ErrHostDown before any
// later op reaches the DRAM model.
func TestHammerBatchStopsAtMachineCheck(t *testing.T) {
	// Hundreds of stable cells per row put two landing flips in one
	// 64-bit word on the first real hammering, which ECC cannot
	// correct.
	fault := denseStableFault(5)
	fault.CellsPerRow = 200
	probe, pvm, _ := batchHost(t, fault, true)
	if err := pvm.HammerBatchGPA(borderOps(probe, 3, 1, 250_000)); err != nil || !probe.Crashed() {
		t.Fatalf("precondition: the crashing op left crashed=%v, err=%v", probe.Crashed(), err)
	}

	h, vm, reg := batchHost(t, fault, true)
	// Two ops below every threshold, the crashing op, two more.
	ops := append(borderOps(h, 1, 2, 1), borderOps(h, 3, 3, 250_000)...)
	if err := vm.HammerBatchGPA(ops); !errors.Is(err, ErrHostDown) {
		t.Fatalf("batch error = %v, want ErrHostDown", err)
	}
	if got := counter(t, reg, "dram_hammer_ops_total"); got != 3 {
		t.Errorf("dram_hammer_ops_total = %v, want 3 (no op after the crash evaluated)", got)
	}
	if got := counter(t, reg, "hammer_ops_total"); got != 3 {
		t.Errorf("hammer_ops_total = %v, want 3", got)
	}
}

// Every op is translated before the first one runs: an unmapped
// aggressor in the last op fails the batch with nothing charged.
func TestHammerBatchTranslatesUpFront(t *testing.T) {
	h, vm, reg := batchHost(t, denseStableFault(13), false)
	ops := borderOps(h, 0, 4, 250_000)
	ops[3].Aggressors[1] = 128 * memdef.MiB // beyond the VM's memory
	before := h.Clock.Now()
	if err := vm.HammerBatchGPA(ops); !errors.Is(err, ErrFault) {
		t.Fatalf("batch error = %v, want ErrFault", err)
	}
	if h.Clock.Now() != before {
		t.Errorf("clock moved %v -> %v on a rejected batch", before, h.Clock.Now())
	}
	if got := counter(t, reg, "dram_hammer_ops_total"); got != 0 {
		t.Errorf("dram_hammer_ops_total = %v, want 0", got)
	}
	if len(h.FlipLog()) != 0 {
		t.Errorf("%d flips landed from a rejected batch", len(h.FlipLog()))
	}
}
