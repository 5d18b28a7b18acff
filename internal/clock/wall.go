package clock

import (
	"math"
	"sync"
	"time"

	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// Wall is the TimerRuntime of a TCP node, over the operating-system
// monotonic clock. Its timers live in one sim.Scheduler used as a
// deadline heap, so arming and cancelling one takes the same handles,
// and allocates as little, as in the simulator. One goroutine, started
// by the first timer, sleeps until the earliest deadline and then fires
// every due timer under the owning node's lock, in deadline order with
// ties in arming order, as the simulator fires them. Message deliveries
// run under the same lock, so protocol state machines written for the
// single-threaded simulator run unchanged.
//
// The node lock guards the heap: AtTimer, Cancel and After must be
// called with it held (every protocol handler and timer callback holds
// it). Now and Stop need no lock.
type Wall struct {
	mu    *sync.Mutex
	start time.Time

	// Guarded by mu.
	timers  *sim.Scheduler
	sleep   types.Time // deadline the goroutine sleeps to; draining while it fires or starts
	running bool       // the goroutine has started
	stopped bool

	wake chan struct{} // an earlier deadline, or Stop
	done chan struct{} // closed when the goroutine returns
}

// draining marks the goroutine as awake: a timer armed meanwhile needs no
// wake-up, since the goroutine re-reads the heap before it sleeps.
const draining = types.Time(math.MinInt64)

var _ TimerRuntime = (*Wall)(nil)

// NewWallAt creates a wall-clock runtime whose Now() reports monotonic
// nanoseconds since start. mu is the owning node's big lock; every timer
// callback runs with mu held. Run message deliveries under the same
// lock. A cluster harness gives every node the same origin so their
// metrics timestamps (decision instants, send series) live on one
// comparable time base.
func NewWallAt(mu *sync.Mutex, start time.Time) *Wall {
	return &Wall{
		mu:     mu,
		start:  start,
		timers: sim.New(0),
		sleep:  draining,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// Now implements Runtime using monotonic nanoseconds since the origin.
func (w *Wall) Now() types.Time { return types.Time(time.Since(w.start)) }

// AtTimer implements TimerRuntime: fn runs under the node lock once the
// wall clock reaches t (past times are clamped to now). After Stop it
// arms nothing and returns the zero Timer.
func (w *Wall) AtTimer(t types.Time, fn func()) sim.Timer {
	if w.stopped {
		return sim.Timer{}
	}
	if now := w.Now(); t < now {
		t = now
	}
	tm := w.timers.AtTimer(t, fn)
	switch {
	case !w.running:
		w.running = true
		go w.run()
	case t < w.sleep:
		w.sleep = t
		w.poke()
	}
	return tm
}

// Cancel implements TimerRuntime: the timer leaves the heap at once;
// stale or zero handles are no-ops.
func (w *Wall) Cancel(tm sim.Timer) { w.timers.Cancel(tm) }

// After implements Runtime on top of AtTimer; the returned cancel, like
// Cancel, must be called under the node lock.
func (w *Wall) After(d time.Duration, fn func()) func() {
	tm := w.AtTimer(w.Now().Add(d), fn)
	return func() { w.Cancel(tm) }
}

// Stop drops every pending timer and ends the goroutine, waiting for a
// callback in flight to return: once Stop returns no callback runs, none
// will follow, and timers armed later are ignored. Call it without the
// node lock. Stop is idempotent.
func (w *Wall) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.timers.Clear()
	running := w.running
	w.mu.Unlock()
	if running {
		w.poke()
		<-w.done
	}
}

func (w *Wall) poke() {
	select {
	case w.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// run is the timer goroutine: it fires every due timer under the node
// lock, then sleeps until the next deadline or a poke. A spurious wake-up
// finds nothing due and sleeps again.
func (w *Wall) run() {
	defer close(w.done)
	alarm := time.NewTimer(time.Hour)
	alarm.Stop()
	for {
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return
		}
		w.sleep = draining
		w.timers.RunUntil(w.Now())
		next, ok := w.timers.NextAt()
		if !ok {
			next = types.TimeInf
		}
		w.sleep = next
		w.mu.Unlock()
		if ok {
			alarm.Reset(time.Until(w.start.Add(time.Duration(next))))
		}
		select {
		case <-alarm.C:
		case <-w.wake:
			if !alarm.Stop() {
				select {
				case <-alarm.C:
				default:
				}
			}
		}
	}
}
