package clock

import (
	"sync"
	"time"

	"lumiere/internal/types"
)

// Wall is a Runtime over the operating-system monotonic clock. All
// callbacks (timers and, by convention, message deliveries) are serialized
// by a single mutex supplied by the owning node, so protocol state
// machines written for the single-threaded simulator run unchanged.
type Wall struct {
	mu    *sync.Mutex
	start time.Time
}

var _ Runtime = (*Wall)(nil)

// NewWallAt creates a wall-clock runtime whose Now() reports monotonic
// nanoseconds since start. mu is the owning node's big lock; every timer
// callback runs with mu held. Run message deliveries under the same
// lock. A cluster harness gives every node the same origin so their
// metrics timestamps (decision instants, send series) live on one
// comparable time base.
func NewWallAt(mu *sync.Mutex, start time.Time) *Wall {
	return &Wall{mu: mu, start: start}
}

// Now implements Runtime using monotonic nanoseconds since the origin.
func (w *Wall) Now() types.Time { return types.Time(time.Since(w.start)) }

// After implements Runtime. The callback acquires the node lock.
func (w *Wall) After(d time.Duration, fn func()) func() {
	if d < 0 {
		d = 0
	}
	var once sync.Once
	canceled := make(chan struct{})
	timer := time.AfterFunc(d, func() {
		select {
		case <-canceled:
			return
		default:
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		select {
		case <-canceled:
			return
		default:
			fn()
		}
	})
	return func() {
		once.Do(func() {
			close(canceled)
			timer.Stop()
		})
	}
}

// Lock exposes the node lock for transports delivering messages.
func (w *Wall) Lock() { w.mu.Lock() }

// Unlock releases the node lock.
func (w *Wall) Unlock() { w.mu.Unlock() }
