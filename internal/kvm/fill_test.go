package kvm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"hyperhammer/internal/ept"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/memmap"
	"hyperhammer/internal/scope"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/trace"
)

// fillRig is one host prepared for a FillPagesGPA equivalence run: a
// VM whose fill range crosses three 2 MiB runs (a THP chunk, a split
// chunk, a THP chunk), tick hooks with boundaries inside a run, on a
// run's first page and on a run's last page, and a trace recorder and
// a ledger sealing every seven page-writes.
type fillRig struct {
	h      *Host
	vm     *VM
	frames []memdef.PFN // backing of each page in the range, pre-fill
	start  time.Duration
	ticks  []fillTick
	trace  bytes.Buffer
	led    *ledger.Recorder
}

// fillTick is what one hook saw: the clock reading, a digest of the
// first word of every frame in the fill range, and how many of those
// words were nonzero.
type fillTick struct {
	now    time.Duration
	digest uint64
	filled int
}

const (
	// fillStart is 13 pages into chunk 2, so the runs are pages
	// 0..498 (chunk 2), 499..1010 (chunk 3, split) and 1011..1522
	// (chunk 4).
	fillStart = 2*memdef.HugePageSize + 13*memdef.PageSize
	fillPages = 1523
	// splitChunk is the split chunk the fill's second run crosses.
	splitChunk = 3 * memdef.HugePageSize
)

// Hook periods in page-writes: page k's write is step k+1, so 500
// puts a boundary on page 499 (the first page of run 2), 1011 on page
// 1010 (the last page of run 2), and 13 and the ledger's 7 inside
// every run.
var fillPeriods = []int64{500, 1011, 13}

const fillLedgerEpoch = 7 * simtime.PageWrite

func newFillRig(t *testing.T, mutate func(r *fillRig)) *fillRig {
	t.Helper()
	r := &fillRig{led: ledger.New(ledger.Config{Epoch: fillLedgerEpoch})}
	cfg := testHostConfig()
	cfg.Scope = scope.Scope{Trace: trace.New(&r.trace, 0), Ledger: r.led}
	r.h = newTestHost(t, cfg)
	vm, err := r.h.CreateVM(VMConfig{MemSize: 16 * memdef.MiB, VFIOGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.vm = vm
	if _, err := vm.ExecGPA(splitChunk); err != nil {
		t.Fatal(err)
	}
	if err := vm.MapDMA(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(r)
	}
	for k := 0; k < fillPages; k++ {
		if hpa, err := vm.translate(fillStart + memdef.GPA(k)*memdef.PageSize); err == nil {
			r.frames = append(r.frames, memdef.PFNOf(hpa))
		}
	}
	// Start the fill at a multiple of every period, so each hook's
	// boundaries fall on the pages named above.
	step := int64(simtime.PageWrite)
	lcm := step * int64(fillLedgerEpoch/simtime.PageWrite)
	for _, p := range fillPeriods {
		lcm *= p
	}
	now := int64(r.h.Clock.Now())
	r.h.Clock.Advance(time.Duration((now/lcm+1)*lcm - now))
	r.start = r.h.Clock.Now()
	stream := r.led.Stream("test.fill")
	for _, p := range fillPeriods {
		r.h.Clock.OnTick(time.Duration(p*step), func(now time.Duration) {
			d, filled := uint64(14695981039346656037), 0
			for _, f := range r.frames {
				w := r.h.Mem.PageWord(f, 0)
				d = (d ^ w) * 1099511628211
				if w != 0 {
					filled++
				}
			}
			r.ticks = append(r.ticks, fillTick{now, d, filled})
			stream.Fold2(uint64(now), d)
			r.h.cfg.Trace.Emit("test.tick", "digest", d)
		})
	}
	return r
}

func fillWord(k int) uint64 { return uint64(k)*0x9E3779B97F4A7C15 | 1 }

// TestFillPagesGPAMatchesOnePageCalls fills the same range on two
// identical hosts, in one FillPagesGPA call and in one call per page,
// and requires everything observable to match: each hook's reading and
// view of the range, the error, the final clock, the trace stream and
// the ledger. The later cases add a fill that lands on a live table
// frame mid-run (an IOPT page, then the VM's own level-2 EPT table),
// one that faults mid-run, a split leaf taken out of stride form by a
// flip, and a stride leaf whose run covers live table frames, the leaf
// among them.
func TestFillPagesGPAMatchesOnePageCalls(t *testing.T) {
	// tableOf returns the EPT table page holding chunk's leaf entry:
	// its leaf table if split, the level-2 table if not.
	tableOf := func(r *fillRig, chunk memdef.GPA) memdef.PFN {
		tr, err := r.vm.ept.Translate(uint64(chunk))
		if err != nil {
			t.Fatal(err)
		}
		return memdef.PFNOf(tr.EntryAddr)
	}
	redirect := func(r *fillRig, to memdef.PFN) {
		r.h.Mem.SetPageWord(tableOf(r, splitChunk), 200, uint64(ept.NewEntry(to, ept.PermRWX, false)))
		r.vm.flushTLB()
	}
	cases := []struct {
		name    string
		mutate  func(r *fillRig)
		wantErr error
	}{
		{"clean", nil, nil},
		{"live table frame mid-run", func(r *fillRig) {
			// Page 200 of the split chunk (fill page 699) now maps
			// the IOPT group's first table page; the fill goes on
			// from page 700 after a flush.
			for p, d := range r.h.frames {
				if d.Kind() == memmap.Table && d.Structure() == 1 {
					redirect(r, memdef.PFN(p))
					return
				}
			}
		}, nil},
		{"own EPT table mid-run", func(r *fillRig) {
			// Fill page 699 overwrites the level-2 table, so the
			// re-resolve after the flush walks a garbage entry.
			redirect(r, tableOf(r, 4*memdef.HugePageSize))
		}, ErrMachineCheck},
		{"fault mid-run", func(r *fillRig) {
			// Page 300 of the split chunk (fill page 799) is unmapped.
			r.h.Mem.SetPageWord(tableOf(r, splitChunk), 300, 0)
		}, ErrFault},
		{"flipped entry in a stride leaf", func(r *fillRig) {
			// A flip of PFN bit 0 in entry 100 (fill page 599) takes
			// the leaf out of stride form, and pages 100 and 101 of
			// the 2 MiB-aligned backing now share a frame.
			leaf := tableOf(r, splitChunk)
			if !r.h.Mem.FlipBit(leaf.HPAOf()+100*8+1, 4, false) {
				t.Fatal("flip did not apply")
			}
			r.vm.flushTLB()
		}, nil},
		{"stride leaf over live tables", func(r *fillRig) {
			// The split chunk's leaf, rewritten in stride form, maps
			// the last 2 MiB of host memory, which holds the IOPT
			// root and, one frame up, the leaf itself. The run fills
			// the IOPT page and flushes, the next run fills the leaf
			// and flushes, and the page after it walks the filled
			// leaf into a machine check.
			leaf := tableOf(r, splitChunk)
			start := memdef.PFN(r.h.Mem.Frames() - memdef.PagesPerHuge)
			iopt := leaf - 1
			if d := r.h.frames[iopt]; start > iopt || d.Kind() != memmap.Table || d.Structure() != 1 {
				t.Fatalf("frame %d below the leaf is %v, not an IOPT page in the last 2 MiB", iopt, d.Kind())
			}
			r.h.Mem.FillStride(leaf, uint64(ept.NewEntry(start, ept.PermRWX, false)))
			r.vm.flushTLB()
		}, ErrMachineCheck},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := newFillRig(t, tc.mutate)
			errRun := run.vm.FillPagesGPA(fillStart, fillPages, fillWord)

			step := newFillRig(t, tc.mutate)
			var errStep error
			for k := 0; k < fillPages && errStep == nil; k++ {
				errStep = step.vm.FillPagesGPA(fillStart+memdef.GPA(k)*memdef.PageSize, 1,
					func(int) uint64 { return fillWord(k) })
			}

			if !errors.Is(errRun, tc.wantErr) || !errors.Is(errStep, tc.wantErr) {
				t.Fatalf("errors: one call %v, per page %v, want %v", errRun, errStep, tc.wantErr)
			}
			if len(run.ticks) < 50 {
				t.Fatalf("only %d hook firings; the fill should cross over 50 boundaries", len(run.ticks))
			}
			if tc.mutate == nil {
				// The range starts zeroed, so a hook firing on page
				// k's write must see exactly pages 0..k-1 filled.
				for _, tk := range run.ticks {
					if k := int((tk.now-run.start)/simtime.PageWrite) - 1; tk.filled != k {
						t.Fatalf("hook at %v (page %d's write) saw %d pages filled, want %d", tk.now, k, tk.filled, k)
					}
				}
			}
			if !reflect.DeepEqual(run.ticks, step.ticks) {
				t.Errorf("hooks saw different readings or memory: %d vs %d firings", len(run.ticks), len(step.ticks))
			}
			if a, b := run.h.Clock.Now(), step.h.Clock.Now(); a != b {
				t.Errorf("final clock %v, per page %v", a, b)
			}
			if err := errors.Join(run.h.cfg.Trace.Flush(), step.h.cfg.Trace.Flush()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(run.trace.Bytes(), step.trace.Bytes()) {
				t.Error("trace streams differ")
			}
			if !reflect.DeepEqual(run.led.Snapshot(), step.led.Snapshot()) {
				t.Error("ledger snapshots differ")
			}
		})
	}
}
