package clock

import (
	"sync"
	"testing"
	"time"

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
	done := make(chan struct{})
	locked := false
	w.After(time.Millisecond, func() {
		// TryLock failing proves the callback holds the node lock.
		locked = !mu.TryLock()
		if !locked {
			mu.Unlock()
		}
		close(done)
	})
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
	fired := make(chan struct{}, 1)
	cancel := w.After(20*time.Millisecond, func() { fired <- struct{}{} })
	cancel()
	cancel() // idempotent
	select {
	case <-fired:
		t.Fatal("canceled timer fired")
	case <-time.After(60 * time.Millisecond):
	}
}

func TestWallNegativeDelayClamped(t *testing.T) {
	var mu sync.Mutex
	w := NewWallAt(&mu, time.Now())
	done := make(chan struct{})
	w.After(-time.Second, func() { close(done) })
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
