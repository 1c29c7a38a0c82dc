package simtime

import (
	"math"
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	c.Advance(3 * time.Second)
	c.Advance(0)
	if c.Now() != 3*time.Second {
		t.Errorf("Now = %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative advance did not panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestCharge(t *testing.T) {
	var c Clock
	c.Charge(250_000, RowActivation)
	if got, want := c.Now(), 250_000*RowActivation; got != want {
		t.Errorf("Charge = %v, want %v", got, want)
	}
	c.Charge(-5, time.Second)
	c.Charge(0, time.Second)
	if c.Now() != 250_000*RowActivation {
		t.Error("non-positive charges advanced the clock")
	}
}

func TestChargeOverflowSaturates(t *testing.T) {
	var c Clock
	c.Charge(1<<62, time.Hour)
	if c.Now() <= 0 {
		t.Errorf("overflowed to %v", c.Now())
	}
}

func TestOnTickFiresOnBoundaries(t *testing.T) {
	var c Clock
	var fired []time.Duration
	c.OnTick(time.Second, func(now time.Duration) { fired = append(fired, now) })

	c.Advance(400 * time.Millisecond) // 0.4s: below first boundary
	if len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	c.Advance(700 * time.Millisecond) // 1.1s: crossed 1s
	c.Advance(100 * time.Millisecond) // 1.2s: no new boundary
	c.Advance(3 * time.Second)        // 4.2s: crossed 2s..4s, fires once
	want := []time.Duration{1100 * time.Millisecond, 4200 * time.Millisecond}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Errorf("fired = %v, want %v", fired, want)
	}
	// Next boundary after 4.2s is 5s.
	c.Advance(800 * time.Millisecond)
	if len(fired) != 3 || fired[2] != 5*time.Second {
		t.Errorf("post-jump firing = %v", fired)
	}
}

func TestOnTickExactBoundary(t *testing.T) {
	var c Clock
	n := 0
	c.OnTick(time.Second, func(time.Duration) { n++ })
	c.Advance(time.Second)
	c.Advance(time.Second)
	if n != 2 {
		t.Errorf("fired %d times, want 2", n)
	}
}

func TestOnTickIgnoresBadArgs(t *testing.T) {
	var c Clock
	c.OnTick(0, func(time.Duration) {})
	c.OnTick(time.Second, nil)
	c.Advance(time.Hour) // must not panic or fire anything
}

func TestOnTickHookAdvanceDoesNotRecurse(t *testing.T) {
	var c Clock
	n := 0
	c.OnTick(time.Second, func(time.Duration) {
		n++
		if n < 3 {
			c.Advance(5 * time.Second) // misbehaving hook: must not recurse
		}
	})
	c.Advance(time.Second)
	if n != 1 {
		t.Errorf("hook fired %d times within one Advance, want 1", n)
	}
}

func TestStopwatch(t *testing.T) {
	var c Clock
	c.Advance(time.Minute)
	sw := NewStopwatch(&c)
	c.Advance(90 * time.Second)
	if got := sw.Elapsed(); got != 90*time.Second {
		t.Errorf("Elapsed = %v", got)
	}
}

func TestStepsBeforeTick(t *testing.T) {
	const unit = PageWrite // 500 ns
	cases := []struct {
		name  string
		setup func(c *Clock, hook func(time.Duration))
		want  int64
	}{
		{"no hooks", func(c *Clock, _ func(time.Duration)) { c.Advance(1234) }, math.MaxInt64},
		{"boundary one step ahead", func(c *Clock, hook func(time.Duration)) {
			c.OnTick(unit, hook)
		}, 0},
		{"nearest hook wins", func(c *Clock, hook func(time.Duration)) {
			c.OnTick(10*time.Microsecond, hook)
			c.OnTick(3*time.Microsecond, hook)
			c.Advance(1200) // 3 µs is 1800 ns away: 3 steps stay below it
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c Clock
			fired := 0
			tc.setup(&c, func(time.Duration) { fired++ })
			got := c.StepsBeforeTick(unit)
			if got != tc.want {
				t.Fatalf("StepsBeforeTick = %d, want %d", got, tc.want)
			}
			if got == math.MaxInt64 {
				return
			}
			// The k steps fire nothing; the step after them fires.
			fired = 0
			for i := int64(0); i < got; i++ {
				c.Advance(unit)
			}
			if fired != 0 {
				t.Fatalf("%d steps fired %d hooks", got, fired)
			}
			c.Advance(unit)
			if fired == 0 {
				t.Fatalf("step %d reached no boundary", got+1)
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive step did not panic")
		}
	}()
	var c Clock
	c.StepsBeforeTick(0)
}
