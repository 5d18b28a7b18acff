package clock

import (
	"sync"
	"testing"
	"time"

	"lumiere/internal/sim"
	"lumiere/internal/types"
)

func TestWallNowMonotone(t *testing.T) {
	var mu sync.Mutex
	w := NewWallAt(&mu, time.Now())
	a := w.Now()
	time.Sleep(2 * time.Millisecond)
	b := w.Now()
	if b <= a {
		t.Fatalf("wall time not advancing: %v -> %v", a, b)
	}
}

func TestWallAfterFiresUnderLock(t *testing.T) {
	var mu sync.Mutex
	w := NewWallAt(&mu, time.Now())
	defer w.Stop()
	done := make(chan struct{})
	locked := false
	mu.Lock()
	w.After(time.Millisecond, func() {
		// TryLock failing proves the callback holds the node lock.
		locked = !mu.TryLock()
		if !locked {
			mu.Unlock()
		}
		close(done)
	})
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	if !locked {
		t.Fatal("callback did not hold the node lock")
	}
}

func TestWallAfterCancel(t *testing.T) {
	var mu sync.Mutex
	w := NewWallAt(&mu, time.Now())
	defer w.Stop()
	fired := make(chan struct{}, 1)
	mu.Lock()
	cancel := w.After(20*time.Millisecond, func() { fired <- struct{}{} })
	cancel()
	cancel() // idempotent
	mu.Unlock()
	select {
	case <-fired:
		t.Fatal("canceled timer fired")
	case <-time.After(60 * time.Millisecond):
	}
}

func TestWallNegativeDelayClamped(t *testing.T) {
	var mu sync.Mutex
	w := NewWallAt(&mu, time.Now())
	defer w.Stop()
	done := make(chan struct{})
	mu.Lock()
	w.After(-time.Second, func() { close(done) })
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("negative-delay timer never fired")
	}
}

// TestClockOverWall exercises the protocol clock on the real runtime:
// pause/bump/alarm semantics hold with real-time jitter.
func TestClockOverWall(t *testing.T) {
	var mu sync.Mutex
	w := NewWallAt(&mu, time.Now())
	defer w.Stop()
	mu.Lock()
	c := New(w, 0)
	mu.Unlock()

	fired := make(chan types.Time, 1)
	mu.Lock()
	c.SetAlarm(types.Time(5*time.Millisecond), func() { fired <- c.Read() })
	mu.Unlock()
	select {
	case lc := <-fired:
		if lc < types.Time(5*time.Millisecond) {
			t.Fatalf("alarm fired early: %v", lc)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("alarm never fired")
	}

	mu.Lock()
	c.Pause()
	frozen := c.Read()
	mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	if c.Read() != frozen {
		t.Fatal("paused wall clock advanced")
	}
	c.BumpTo(frozen + types.Time(time.Hour))
	if c.Read() != frozen+types.Time(time.Hour) {
		t.Fatal("bump while paused failed")
	}
	c.Unpause()
	mu.Unlock()
}

// TestWallTiesFireInArmingOrder: timers sharing a deadline fire in the
// order they were armed, as the simulator fires them, and an earlier
// deadline armed last still fires first.
func TestWallTiesFireInArmingOrder(t *testing.T) {
	var mu sync.Mutex
	w := NewWallAt(&mu, time.Now())
	defer w.Stop()
	var got []int
	done := make(chan struct{})
	mu.Lock()
	at := w.Now() + types.Time(20*time.Millisecond)
	for i := 1; i <= 5; i++ {
		i := i
		w.AtTimer(at, func() {
			got = append(got, i)
			if i == 5 {
				close(done)
			}
		})
	}
	w.AtTimer(at-types.Time(10*time.Millisecond), func() { got = append(got, 0) })
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timers never fired")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("fired %v, want 0 1 2 3 4 5", got)
		}
	}
}

// TestWallStopDropsPending: Stop drops armed timers and waits out its
// goroutine; nothing armed before or after it ever fires.
func TestWallStopDropsPending(t *testing.T) {
	var mu sync.Mutex
	w := NewWallAt(&mu, time.Now())
	fired := make(chan struct{}, 2)
	mu.Lock()
	w.After(20*time.Millisecond, func() { fired <- struct{}{} })
	mu.Unlock()
	w.Stop()
	w.Stop() // idempotent
	mu.Lock()
	if tm := w.AtTimer(w.Now(), func() { fired <- struct{}{} }); tm != (sim.Timer{}) {
		t.Error("a stopped Wall armed a timer")
	}
	if n := w.timers.Pending(); n != 0 {
		t.Errorf("%d timers pending after Stop", n)
	}
	mu.Unlock()
	select {
	case <-fired:
		t.Fatal("a timer fired after Stop")
	case <-time.After(60 * time.Millisecond):
	}
}
