// Package clock implements the local-clock abstraction of §2 and §4 of the
// paper: each processor p maintains a value lc(p) that advances in real
// time except when the protocol pauses it or bumps it forward. The same
// Clock runs over virtual time and over wall time through one
// TimerRuntime contract: the simulator's scheduler (sim.Scheduler), a
// Drift decorator over it, and Wall, a TCP node's runtime over the
// operating-system clock, whose timers sit in a scheduler heap of their
// own and fire under the node lock.
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
	"fmt"
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

// TimerRuntime is the Runtime every Clock runs on: handle-based one-shot
// timers with eager cancellation. Clock arms and cancels its alarm
// through reusable Timer handles and callbacks cached at construction,
// so the alarm path — exercised at every view boundary by every
// clock-driven pacemaker, and at every QC bump through Ticker.Jumped —
// allocates nothing per alarm.
//
// The handle is the concrete sim.Timer, since a zero-allocation handle
// needs a concrete value type: sim.Scheduler implements TimerRuntime,
// Drift forwards it, and Wall keeps its timers in a sim.Scheduler heap
// of its own, so one handle type serves both runtimes.
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
	rt     TimerRuntime
	value  types.Time // lc at anchor (exact when paused)
	anchor types.Time // rt.Now() when value was anchored (running only)
	paused bool

	// The single alarm: its target and callback, and the pending timer.
	// Cancellation is eager (the timer leaves the runtime's queue at
	// once), so a stale timer can never fire a replaced alarm.
	alarmTarget types.Time
	alarmFn     func()
	tm          sim.Timer
	physFn      func() // physical-alarm callback (guards against pause races)
	asyncFn     func() // already-reached-target callback
}

// New returns a running Clock with lc = initial. rt must implement
// TimerRuntime (the parameter keeps the wider type for callers holding a
// plain Runtime); New panics, naming the type, on one that does not.
func New(rt Runtime, initial types.Time) *Clock {
	trt, ok := rt.(TimerRuntime)
	if !ok {
		panic(fmt.Sprintf("clock: runtime %T has no handle timers (clock.TimerRuntime)", rt))
	}
	c := &Clock{rt: trt, value: initial, anchor: rt.Now(), alarmTarget: types.TimeInf}
	c.physFn = func() {
		if c.paused {
			return
		}
		c.fireAlarm()
	}
	c.asyncFn = c.fireAlarm
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
		c.tm = c.rt.AtTimer(c.rt.Now(), c.asyncFn)
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
}

func (c *Clock) cancelPhysical() {
	c.rt.Cancel(c.tm)
	c.tm = sim.Timer{}
}

func (c *Clock) armPhysical() {
	if c.alarmFn == nil || c.alarmTarget == types.TimeInf {
		return
	}
	d := c.alarmTarget.Sub(c.Read())
	c.tm = c.rt.AtTimer(c.rt.Now().Add(d), c.physFn)
}

func (c *Clock) fireAlarm() {
	fn := c.alarmFn
	c.alarmFn = nil
	c.alarmTarget = types.TimeInf
	c.tm = sim.Timer{}
	if fn != nil {
		fn()
	}
}
