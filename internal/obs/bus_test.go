package obs

import (
	"sync"
	"testing"
)

func TestBusFanOut(t *testing.T) {
	b := NewBus()
	a := b.Subscribe(8)
	c := b.Subscribe(8)
	defer a.Cancel()
	defer c.Cancel()
	b.Publish("x", 1.5, map[string]any{"k": 1})
	for _, sub := range []*Subscription{a, c} {
		ev := <-sub.Events()
		if ev.Kind != "x" || ev.SimSeconds != 1.5 || ev.Seq != 1 {
			t.Errorf("event = %+v", ev)
		}
	}
	published, dropped, subs := b.Stats()
	if published != 1 || dropped != 0 || subs != 2 {
		t.Errorf("stats = %d %d %d", published, dropped, subs)
	}
}

func TestBusDropsAtFullBuffer(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(2)
	defer s.Cancel()
	for i := 0; i < 5; i++ {
		b.Publish("x", 0, nil)
	}
	if got := s.Dropped(); got != 3 {
		t.Errorf("sub dropped = %d, want 3", got)
	}
	_, dropped, _ := b.Stats()
	if dropped != 3 {
		t.Errorf("bus dropped = %d, want 3", dropped)
	}
	// The retained events are the oldest ones (no displacement).
	ev := <-s.Events()
	if ev.Seq != 1 {
		t.Errorf("first retained seq = %d", ev.Seq)
	}
}

func TestBusReplayRing(t *testing.T) {
	b := NewBus()
	for i := 0; i < eventKeep+2; i++ {
		b.Publish("x", float64(i), nil)
	}
	recent := b.Recent()
	if len(recent) != eventKeep || recent[0].Seq != 3 || recent[eventKeep-1].Seq != eventKeep+2 {
		t.Errorf("recent holds %d events, seq %d..%d; want %d, seq 3..%d",
			len(recent), recent[0].Seq, recent[len(recent)-1].Seq, eventKeep, eventKeep+2)
	}
}

func TestBusCancelClosesChannel(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(1)
	s.Cancel()
	s.Cancel() // idempotent
	if _, ok := <-s.Events(); ok {
		t.Error("channel not closed")
	}
	b.Publish("x", 0, nil) // must not panic on a cancelled sub
	_, _, subs := b.Stats()
	if subs != 0 {
		t.Errorf("subs = %d after cancel", subs)
	}
}

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	b.Publish("x", 0, nil)
	if b.Recent() != nil {
		t.Error("nil bus has recent events")
	}
	p, d, n := b.Stats()
	if p != 0 || d != 0 || n != 0 {
		t.Error("nil bus has stats")
	}
	s := b.Subscribe(4)
	s.Cancel()
	s.Cancel()
}

// TestBusConcurrentPublishSubscribe exercises the bus under the race
// detector: publishers, subscribers draining, and churn of
// subscribe/cancel, all at once.
func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup
	const publishers = 4
	const perPublisher = 500

	// Steady subscribers that drain everything.
	received := make([]int, 3)
	for i := range received {
		sub := b.Subscribe(64)
		wg.Add(1)
		go func(i int, sub *Subscription) {
			defer wg.Done()
			for range sub.Events() {
				received[i]++
			}
		}(i, sub)
		defer sub.Cancel()
	}

	// Churning subscribers that come and go mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s := b.Subscribe(1)
			b.Recent()
			s.Cancel()
		}
	}()

	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPublisher; i++ {
				b.Publish("k", float64(i), map[string]any{"p": p})
			}
		}(p)
	}
	pubWG.Wait()

	published, dropped, _ := b.Stats()
	if published != publishers*perPublisher {
		t.Errorf("published = %d, want %d", published, publishers*perPublisher)
	}
	// Close the steady subscribers so their goroutines finish.
	// (deferred Cancels close the channels; Wait below needs them run
	// first, so cancel explicitly.)
	for _, s := range busSubs(b) {
		s.Cancel()
	}
	wg.Wait()
	for i, n := range received {
		if n+int(dropped) < perPublisher { // each sub saw most events
			t.Errorf("subscriber %d received only %d (dropped %d)", i, n, dropped)
		}
	}
}

// busSubs snapshots the live subscriptions (test helper).
func busSubs(b *Bus) []*Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*Subscription, 0, len(b.subs))
	for s := range b.subs {
		out = append(out, s)
	}
	return out
}
