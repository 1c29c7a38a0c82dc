// Package sched is a deterministic parallel unit scheduler: it fans
// independent units of work across a bounded worker pool and hands
// their results back in declaration order, so callers that fold
// results as they are delivered observe exactly the sequential
// execution's order no matter how many workers ran or how completion
// interleaved.
//
// The determinism contract rests on three properties:
//
//   - Units are started in index order off one feed channel, so the
//     set of started units is always a prefix of the declaration
//     order.
//
//   - Results are buffered and delivered strictly in index order; a
//     completed unit waits until every earlier unit has been
//     delivered.
//
//   - On failure the feed stops (no new units start, in-flight units
//     finish), and the error reported is always the lowest-index
//     failing unit's — which, because started units form a prefix, is
//     the same unit the sequential run would have failed on.
//
// Units themselves must be independent: anything they share must be
// immutable or internally synchronized, and anything order-sensitive
// (telemetry merging, table assembly) belongs in the deliver callback,
// which runs on the caller's goroutine in index order.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Unit is one independent piece of work. Run's return value is handed
// to the deliver callback untouched.
type Unit struct {
	// Name identifies the unit in error paths and progress logs.
	Name string
	// Run executes the unit. It is called at most once, possibly on a
	// worker goroutine.
	Run func() (any, error)
}

// Runner executes unit batches on a bounded worker pool.
type Runner struct {
	workers int
}

// New creates a runner with the given pool size. workers <= 0 selects
// GOMAXPROCS, the number of CPUs the runtime will actually use.
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// result carries one unit's outcome to the collector.
type result struct {
	i   int
	v   any
	err error
}

// RunTimed executes every unit and calls deliver(index, value) for
// each, in strict index order, on the calling goroutine. deliver may
// be nil. The first error — from the lowest-index failing unit, or
// from deliver itself — stops the feed; units already in flight finish
// but their results past the failure point are discarded. Errors are
// returned as produced, without additional wrapping.
//
// It also records host-cost telemetry: for every unit, which worker
// ran it and when (wall clock, relative to batch start), when it was
// delivered, and the process CPU consumed across the whole batch.
// Timing is pure observation — timestamps are taken around the
// existing engine without adding any synchronization on the delivery
// path, so the determinism contract (index-ordered delivery,
// first-declared-error) is untouched.
//
// The returned Schedule is always non-nil, even when the batch failed:
// units that never started carry Worker == -1 and Started == false.
func (r *Runner) RunTimed(units []Unit, deliver func(i int, v any) error) (*Schedule, error) {
	sc := &Schedule{Units: make([]UnitTiming, len(units))}
	for i := range sc.Units {
		sc.Units[i] = UnitTiming{Index: i, Name: units[i].Name, Worker: -1}
	}
	if len(units) == 0 {
		return sc, nil
	}
	workers := r.workers
	if workers > len(units) {
		workers = len(units)
	}
	sc.Workers = workers
	start := time.Now()
	cpu0 := cpuSeconds()
	since := func() float64 { return time.Since(start).Seconds() }
	finish := func(err error) (*Schedule, error) {
		sc.WallSeconds = since()
		sc.CPUSeconds = cpuSeconds() - cpu0
		return sc, err
	}
	if workers <= 1 {
		// Sequential fast path: same contract, no goroutines.
		for i, u := range units {
			ut := &sc.Units[i]
			ut.Worker, ut.Started = 0, true
			ut.StartSeconds = since()
			v, err := u.Run()
			ut.EndSeconds = since()
			if err != nil {
				return finish(err)
			}
			ut.DeliverStartSeconds = ut.EndSeconds
			if deliver != nil {
				if err := deliver(i, v); err != nil {
					ut.DeliverEndSeconds = since()
					return finish(err)
				}
			}
			ut.DeliverEndSeconds = since()
			ut.Delivered = true
		}
		return finish(nil)
	}

	var stop atomic.Bool
	feed := make(chan int) // unbounded start is exactly what determinism forbids
	results := make(chan result, len(units))
	var wg sync.WaitGroup

	go func() {
		for i := range units {
			if stop.Load() {
				break
			}
			feed <- i
		}
		close(feed)
	}()

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := range feed {
				// Each timing slot is written by exactly one worker and
				// read only after its result crosses the channel (or
				// after the channel closes), so no lock is needed and
				// delivery never waits on instrumentation.
				ut := &sc.Units[i]
				ut.Worker, ut.Started = w, true
				ut.StartSeconds = since()
				v, err := units[i].Run()
				ut.EndSeconds = since()
				if err != nil {
					stop.Store(true)
				}
				results <- result{i: i, v: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]result, workers)
	next := 0
	var firstErr error
	errIdx := len(units) // index of the lowest failing unit seen so far
	for res := range results {
		if res.err != nil && res.i < errIdx {
			errIdx = res.i
			firstErr = res.err
		}
		pending[res.i] = res
		for {
			cur, ok := pending[next]
			if !ok || next >= errIdx {
				break
			}
			delete(pending, next)
			next++
			ut := &sc.Units[cur.i]
			ut.DeliverStartSeconds = since()
			if deliver != nil {
				if err := deliver(cur.i, cur.v); err != nil {
					// A deliver failure at this index outranks any unit
					// failure at a higher index: in the sequential run it
					// would have happened first.
					stop.Store(true)
					errIdx = cur.i
					firstErr = err
					ut.DeliverEndSeconds = since()
					break
				}
			}
			ut.DeliverEndSeconds = since()
			ut.Delivered = true
		}
	}
	return finish(firstErr)
}
