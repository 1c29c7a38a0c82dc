// Package simtime provides the virtual clock of the simulation.
//
// HyperHammer's evaluation reports wall-clock costs (72 h of profiling,
// ~4 minute attack attempts, multi-day campaigns). Re-running those on
// a real clock is impossible and unnecessary: every cost in the attack
// is dominated by a small set of primitive operations whose latency is
// known. The simulation therefore charges each primitive to a virtual
// clock and reports virtual durations, which reproduce the *shape* of
// the paper's timing tables.
package simtime

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Cost constants for primitive operations, expressed as virtual
// durations. They are calibrated so that the paper's headline numbers
// come out in the right regime (Section 5): one profiling pass over a
// 12 GiB space takes tens of hours, one attack attempt takes minutes.
const (
	// RowActivation is the cost of one DRAM row activation as driven
	// from a guest hammer loop: tRC on DDR4-2666 is ~47 ns, but each
	// activation costs a clflush, a fenced load and the EPT-translated
	// access path, putting the end-to-end loop iteration near a
	// microsecond. Calibrated so a full 12 GiB profiling pass lands in
	// the paper's multi-day regime (Table 1).
	RowActivation = 300 * time.Nanosecond

	// PageScan is the cost of scanning one 4 KiB page for flipped
	// bits or magic values (streaming read plus compare at ~25 GB/s).
	PageScan = 150 * time.Nanosecond

	// PageWrite is the cost of filling one 4 KiB page with a pattern.
	PageWrite = 500 * time.Nanosecond

	// IOVAMap is the cost of one vIOMMU MAP ioctl round trip
	// (guest driver -> QEMU vIOMMU emulation -> host VFIO ioctl).
	IOVAMap = 100 * time.Microsecond

	// VirtioUnplug is the cost of one virtio-mem sub-block unplug
	// request round trip including host madvise.
	VirtioUnplug = 150 * time.Microsecond

	// HugepageSplit is the cost of one exec-fault-triggered hugepage
	// split in the multihit countermeasure path (VM exit + EPT
	// surgery + resume).
	HugepageSplit = 40 * time.Microsecond

	// VMReboot is the cost of tearing down and respawning the
	// attacker VM after a failed attempt (Section 4.3: steering is
	// not reversible, so each failed attempt costs a reboot) plus
	// booting its guest OS back to the attack tooling.
	VMReboot = 180 * time.Second

	// Hypercall is the cost of the GPA->HPA debug hypercall the
	// paper adds for the Section 5.3.2 experiment.
	Hypercall = 2 * time.Microsecond
)

// Clock is a monotonic virtual clock. The zero value is a clock at
// time zero, ready to use. The clock is single-writer: Advance,
// Charge, OnTick and Reset must all be called from the one simulating
// goroutine (determinism, Section 3 of DESIGN.md), but Now is safe
// from any goroutine — the live observability plane reads the clock
// while the simulation runs. Tick hooks run on the simulating
// goroutine, inside Advance.
type Clock struct {
	now    atomic.Int64 // nanoseconds
	ticks  []*tick
	firing bool
}

// tick is one registered periodic hook.
type tick struct {
	every time.Duration
	next  time.Duration
	fn    func(now time.Duration)
}

// Now returns the current virtual time as a duration since the clock's
// epoch. Safe for concurrent use.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// OnTick registers fn to run whenever the clock crosses a multiple of
// every. A single Advance that jumps several boundaries fires fn once,
// at the post-advance reading — periodic observers want the latest
// state, not a replay of skipped intervals. fn runs on the simulating
// goroutine and must not advance the clock; hooks registered while a
// hook is firing take effect on the next Advance.
func (c *Clock) OnTick(every time.Duration, fn func(now time.Duration)) {
	if every <= 0 || fn == nil {
		return
	}
	// First boundary strictly after the current reading.
	now := c.Now()
	next := now - now%every + every
	c.ticks = append(c.ticks, &tick{every: every, next: next, fn: fn})
}

// Advance moves the clock forward by d. Negative d panics: the clock
// is monotonic and a negative charge is always a bookkeeping bug.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %v", d))
	}
	now := time.Duration(c.now.Load()) + d
	c.now.Store(int64(now))
	if c.firing {
		return // a hook advanced the clock; boundaries fire next Advance
	}
	c.firing = true
	for _, t := range c.ticks {
		if now >= t.next {
			t.next = now - now%t.every + t.every
			t.fn(now)
		}
	}
	c.firing = false
}

// StepsBeforeTick returns how many consecutive Advance(unit) calls
// reach no tick boundary: the largest k with Now()+k·unit below every
// hook's next boundary, or math.MaxInt64 when no hook is registered.
// Charging those k steps as one Charge(k, unit) is indistinguishable
// from advancing them one at a time, provided nothing between the
// steps reads the clock. A non-positive unit panics.
func (c *Clock) StepsBeforeTick(unit time.Duration) int64 {
	if unit <= 0 {
		panic(fmt.Sprintf("simtime: non-positive step %v", unit))
	}
	now := c.Now()
	k := int64(math.MaxInt64)
	for _, t := range c.ticks {
		gap := t.next - now
		if gap <= 0 {
			return 0
		}
		k = min(k, int64((gap-1)/unit))
	}
	return k
}

// Charge advances the clock by n repetitions of a unit cost.
// It saturates rather than overflowing for absurd n.
func (c *Clock) Charge(n int64, unit time.Duration) {
	if n <= 0 {
		return
	}
	total := time.Duration(n) * unit
	if total/unit != time.Duration(n) { // overflow
		total = 1<<63 - 1 - c.Now()
	}
	c.Advance(total)
}

// Stopwatch measures elapsed virtual time between two points.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// NewStopwatch starts a stopwatch on c.
func NewStopwatch(c *Clock) Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed returns the virtual time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }
