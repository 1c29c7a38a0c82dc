package sched

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeterministicOrderUnderRandomDelays: units complete in random
// order (injected sleeps), but delivery must be strictly 0..n-1 with
// each unit's own value.
func TestDeterministicOrderUnderRandomDelays(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewPCG(7, 7))
	units := make([]Unit, n)
	for i := range units {
		i := i
		delay := time.Duration(rng.IntN(3000)) * time.Microsecond
		units[i] = Unit{
			Name: fmt.Sprintf("u%d", i),
			Run: func() (any, error) {
				time.Sleep(delay)
				return i * 10, nil
			},
		}
	}
	var got []int
	_, err := New(8).RunTimed(units, func(i int, v any) error {
		got = append(got, v.(int))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("delivery %d carried %d, want %d", i, v, i*10)
		}
	}
}

// TestWorkerPoolBounded: concurrent executions never exceed the pool
// size.
func TestWorkerPoolBounded(t *testing.T) {
	const workers = 3
	var live, peak atomic.Int64
	units := make([]Unit, 40)
	for i := range units {
		units[i] = Unit{Name: fmt.Sprintf("u%d", i), Run: func() (any, error) {
			cur := live.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			live.Add(-1)
			return nil, nil
		}}
	}
	if _, err := New(workers).RunTimed(units, nil); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent units, pool is %d", p, workers)
	}
}

// TestFirstErrorWins: the reported error is the lowest-index failing
// unit's, delivery stops before it, and undispatched units never
// start.
func TestFirstErrorWins(t *testing.T) {
	const n = 100
	errBoom := errors.New("boom")
	var started atomic.Int64
	units := make([]Unit, n)
	for i := range units {
		i := i
		units[i] = Unit{Name: fmt.Sprintf("u%d", i), Run: func() (any, error) {
			started.Add(1)
			if i == 5 {
				return nil, errBoom
			}
			time.Sleep(2 * time.Millisecond)
			return i, nil
		}}
	}
	var delivered []int
	_, err := New(4).RunTimed(units, func(i int, v any) error {
		delivered = append(delivered, i)
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	for _, i := range delivered {
		if i >= 5 {
			t.Fatalf("delivered unit %d past the failing unit 5", i)
		}
	}
	if s := started.Load(); s == n {
		t.Fatalf("all %d units started despite an early failure", n)
	}
}

// TestDeliverErrorStops: a deliver-callback failure propagates and
// halts further delivery.
func TestDeliverErrorStops(t *testing.T) {
	errMerge := errors.New("merge failed")
	units := make([]Unit, 20)
	for i := range units {
		i := i
		units[i] = Unit{Name: fmt.Sprintf("u%d", i), Run: func() (any, error) { return i, nil }}
	}
	var deliveries int
	_, err := New(4).RunTimed(units, func(i int, v any) error {
		deliveries++
		if i == 3 {
			return errMerge
		}
		return nil
	})
	if !errors.Is(err, errMerge) {
		t.Fatalf("err = %v, want errMerge", err)
	}
	if deliveries != 4 { // indexes 0..3
		t.Fatalf("deliver ran %d times, want 4", deliveries)
	}
}

// TestSequentialFastPath: one worker uses the inline path with the
// same contract.
func TestSequentialFastPath(t *testing.T) {
	var order []int
	units := []Unit{
		{Name: "a", Run: func() (any, error) { return 1, nil }},
		{Name: "b", Run: func() (any, error) { return 2, nil }},
	}
	_, err := New(1).RunTimed(units, func(i int, v any) error {
		order = append(order, v.(int))
		return nil
	})
	if err != nil || len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("sequential run: order=%v err=%v", order, err)
	}
}

// TestDefaultWorkers: New(0) sizes the pool from GOMAXPROCS.
func TestDefaultWorkers(t *testing.T) {
	if w := New(0).workers; w < 1 {
		t.Fatalf("default pool size %d", w)
	}
	if w := New(-3).workers; w < 1 {
		t.Fatalf("negative pool size mapped to %d", w)
	}
}

// TestEmpty: no units, no calls, no error.
func TestEmpty(t *testing.T) {
	if _, err := New(4).RunTimed(nil, func(i int, v any) error {
		t.Fatal("deliver called for empty batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
