// Package clock implements the local-clock abstraction of §2 and §4 of the
// paper: each processor p maintains a value lc(p) that advances in real
// time except when the protocol pauses it or bumps it forward. The same
// implementation runs over virtual time (the simulator's scheduler) and
// over wall time (the TCP runtime) via the Runtime interface.
//
// Protocol handlers of the form "Upon lc(p) == c_v" have exact-attainment
// semantics: they fire when the clock reaches the value c_v either by
// advancing in real time (which touches every intermediate value) or by a
// bump landing exactly on c_v. A bump that jumps over c_v does not fire
// them — the pacemakers compensate with their certificate handlers, as the
// paper's Algorithm 1 does (lines 18, 38, 46). The Ticker type in this
// package centralizes that distinction for all clock-driven pacemakers.
package clock

import (
	"time"

	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// Runtime provides real-time facilities to a protocol node: the current
// (virtual or monotonic) time and one-shot timers. sim.Scheduler implements
// it for simulations; Wall implements it over the OS clock.
type Runtime interface {
	// Now returns the current time.
	Now() types.Time
	// After schedules fn once, d from now, returning an idempotent
	// cancel function. Callbacks must be serialized with all other
	// protocol callbacks of the same node.
	After(d time.Duration, fn func()) (cancel func())
}

// TimerRuntime is an optional Runtime extension providing handle-based
// one-shot timers with eager cancellation. When the runtime supports
// it, Clock arms and cancels its alarm through reusable Timer handles
// and cached callbacks, so the alarm hot path — exercised at every view
// boundary by every clock-driven pacemaker — performs no per-alarm
// closure or cancel-handle allocation.
//
// The handle is the concrete sim.Timer: a zero-allocation handle needs
// a concrete value type, and the simulator is the only runtime where
// alarm churn matters (laptop-scale sweeps fire millions of
// boundaries; the wall-clock runtime fires a handful per second and
// keeps the closure-based fallback path below). This deliberately ties
// the fast path to the simulator rather than inventing a second handle
// abstraction.
type TimerRuntime interface {
	Runtime
	// AtTimer schedules fn at absolute time t and returns a handle for
	// Cancel. Past times are clamped to now.
	AtTimer(t types.Time, fn func()) sim.Timer
	// Cancel removes a scheduled timer; stale or zero handles are
	// no-ops.
	Cancel(tm sim.Timer)
}

// Clock is a pausable, bumpable local clock (lc(p) in the paper). The
// zero value is not usable; use New. Clock is not internally synchronized:
// the owning Runtime serializes access.
type Clock struct {
	rt     Runtime
	value  types.Time // lc at anchor (exact when paused)
	anchor types.Time // rt.Now() when value was anchored (running only)
	paused bool

	alarmTarget types.Time
	alarmFn     func()
	alarmCancel func()
	alarmGen    uint64

	// Allocation-free alarm path, used when rt implements TimerRuntime:
	// the pending alarm is a cancellable Timer handle and the callbacks
	// are cached once at construction. Cancellation is eager (the timer
	// leaves the runtime's queue immediately), which subsumes the
	// generation checks of the closure-based fallback path.
	trt     TimerRuntime
	tm      sim.Timer
	physFn  func() // physical-alarm callback (guards against pause races)
	asyncFn func() // already-reached-target callback
}

// New returns a running Clock with lc = initial.
func New(rt Runtime, initial types.Time) *Clock {
	c := &Clock{rt: rt, value: initial, anchor: rt.Now(), alarmTarget: types.TimeInf}
	if trt, ok := rt.(TimerRuntime); ok {
		c.trt = trt
		c.physFn = func() {
			if c.paused {
				return
			}
			c.fireAlarm()
		}
		c.asyncFn = c.fireAlarm
	}
	return c
}

// Read returns the current local-clock value lc(p).
func (c *Clock) Read() types.Time {
	if c.paused {
		return c.value
	}
	return c.value + (c.rt.Now() - c.anchor)
}

// Paused reports whether the clock is paused.
func (c *Clock) Paused() bool { return c.paused }

// Pause freezes the clock at its current value. Pausing a paused clock is
// a no-op.
func (c *Clock) Pause() {
	if c.paused {
		return
	}
	c.value = c.Read()
	c.paused = true
	c.cancelPhysical()
}

// Unpause resumes the clock from its frozen value. Unpausing a running
// clock is a no-op.
func (c *Clock) Unpause() {
	if !c.paused {
		return
	}
	c.paused = false
	c.anchor = c.rt.Now()
	c.armPhysical()
}

// BumpTo advances the clock to target instantaneously. Bumps never move
// the clock backwards; it returns true if the clock advanced. The paused
// state is preserved (Algorithm 1 unpauses explicitly where required).
//
// If the pending alarm's target is jumped over or landed on, the alarm is
// cleared without firing: the caller is responsible for processing the
// landing value (see Ticker.Jumped), mirroring the paper's convention that
// bump-triggered transitions happen inside the certificate handlers.
func (c *Clock) BumpTo(target types.Time) bool {
	cur := c.Read()
	if target <= cur {
		return false
	}
	c.value = target
	if !c.paused {
		c.anchor = c.rt.Now()
	}
	if c.alarmFn != nil && c.alarmTarget <= target {
		c.clearAlarm()
	}
	return true
}

// SetAlarm replaces the clock's single alarm: fn fires once when the
// running clock reaches target by the passage of time. If target is
// already reached, fn fires asynchronously (next runtime tick). Setting a
// new alarm cancels the previous one.
func (c *Clock) SetAlarm(target types.Time, fn func()) {
	c.clearAlarm()
	c.alarmTarget = target
	c.alarmFn = fn
	if target <= c.Read() {
		if c.trt != nil {
			c.tm = c.trt.AtTimer(c.trt.Now(), c.asyncFn)
			return
		}
		gen := c.alarmGen
		c.alarmCancel = c.rt.After(0, func() {
			if gen == c.alarmGen {
				c.fireAlarm()
			}
		})
		return
	}
	if !c.paused {
		c.armPhysical()
	}
}

func (c *Clock) clearAlarm() {
	c.cancelPhysical()
	c.alarmTarget = types.TimeInf
	c.alarmFn = nil
	c.alarmGen++
}

func (c *Clock) cancelPhysical() {
	if c.trt != nil {
		c.trt.Cancel(c.tm)
		c.tm = sim.Timer{}
		return
	}
	if c.alarmCancel != nil {
		c.alarmCancel()
		c.alarmCancel = nil
	}
}

func (c *Clock) armPhysical() {
	if c.alarmFn == nil || c.alarmTarget == types.TimeInf {
		return
	}
	d := c.alarmTarget.Sub(c.Read())
	if c.trt != nil {
		c.tm = c.trt.AtTimer(c.trt.Now().Add(d), c.physFn)
		return
	}
	gen := c.alarmGen
	c.alarmCancel = c.rt.After(d, func() {
		if gen != c.alarmGen || c.paused {
			return
		}
		c.fireAlarm()
	})
}

func (c *Clock) fireAlarm() {
	fn := c.alarmFn
	c.alarmFn = nil
	c.alarmTarget = types.TimeInf
	c.alarmCancel = nil
	c.tm = sim.Timer{}
	c.alarmGen++
	if fn != nil {
		fn()
	}
}
