package clock

import (
	"time"

	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// Drift is a Runtime decorator modeling an imperfect hardware clock: a
// node reading local time through it observes
//
//	local(t) = t + t·PPM/10⁶ + Skew
//
// where t is the underlying runtime's time, PPM is the rate drift in
// parts per million (+100 = the crystal runs 0.01% fast) and Skew is a
// fixed initial offset. Everything a node does through a drifted
// runtime — Clock reads, alarms, Ticker boundaries, protocol After
// timers — happens in its local time scale, so a timer armed for a
// local-units duration d fires after ≈ d/(1+PPM/10⁶) of real time: a
// fast clock's view timers expire early, a slow clock's late, which is
// exactly the failure mode the model's Γ slack has to absorb. The
// harness derives its in-model drift tolerance from that slack
// (Scenario.Validate); the evaluation's DriftToleranceTable section
// shows what breaks beyond it.
//
// Drift implements TimerRuntime over a TimerRuntime base, so a Clock
// runs over the wrapping with its handle timers: Clock.SetAlarm
// computes its deadline as Now().Add(d) in local units, and Drift's
// AtTimer converts that local target back to a base-runtime instant.
// The conversion is exact at the nanosecond (integer arithmetic with a
// monotone fix-up against rounding), so drifted timers are
// deterministic and never fire before their local target.
//
// |PPM| must be at most 5·10⁵ — a clock between half and 1.5× real
// speed. That is many orders of magnitude past any hardware crystal
// (and past anything the harness accepts in-model) while keeping the
// local↔base conversion's integer arithmetic overflow-free and its
// inverse iteration convergent; NewDrift panics outside the range. The
// zero-drift wrapper (PPM and Skew both zero) is valid and
// observationally transparent.
type Drift struct {
	rt   TimerRuntime
	ppm  int64
	skew types.Time
}

// NewDrift wraps rt with rate drift ppm (parts per million) and initial
// skew. It panics unless -500000 ≤ ppm ≤ 500000.
func NewDrift(rt TimerRuntime, ppm int64, skew time.Duration) *Drift {
	if ppm < -500_000 || ppm > 500_000 {
		panic("clock: drift rate must be within ±5·10⁵ ppm")
	}
	return &Drift{rt: rt, ppm: ppm, skew: types.Time(skew)}
}

// PPM returns the rate drift in parts per million.
func (d *Drift) PPM() int64 { return d.ppm }

// local converts a base-runtime instant to the drifted local scale.
// Splitting t into 10⁶-quotient and remainder keeps the product inside
// int64 for any simulation horizon at any legal ppm.
func (d *Drift) local(t types.Time) types.Time {
	if t == types.TimeInf {
		return types.TimeInf
	}
	q, r := int64(t)/1_000_000, int64(t)%1_000_000
	return t + types.Time(q*d.ppm+r*d.ppm/1_000_000) + d.skew
}

// base inverts local: the earliest base instant whose local image is
// ≥ tl. A fixed-point iteration (each step shrinks the residual by the
// drift factor ρ = ppm/10⁶) lands within a few nanoseconds, and a
// monotone fix-up makes the inverse exact against local's integer
// rounding.
func (d *Drift) base(tl types.Time) types.Time {
	if tl == types.TimeInf {
		return types.TimeInf
	}
	t := tl - d.skew
	if t < 0 {
		t = 0
	}
	for i := 0; i < 64; i++ {
		res := int64(tl - d.local(t))
		if res == 0 {
			break
		}
		// step ≈ res/(1+ρ), split two-scale (quotient·10⁶ plus the
		// remainder rescaled) so it is exact to ~1ns without the
		// res·10⁶ product ever leaving int64.
		div := 1_000_000 + d.ppm
		step := types.Time(res/div*1_000_000 + res%div*1_000_000/div)
		if step == 0 {
			if res > 0 {
				step = 1
			} else {
				step = -1
			}
		}
		if t+step < 0 {
			t = 0
			break
		}
		t += step
	}
	for d.local(t) < tl {
		t++
	}
	for t > 0 && d.local(t-1) >= tl {
		t--
	}
	return t
}

// Now returns the drifted local time.
func (d *Drift) Now() types.Time { return d.local(d.rt.Now()) }

// After schedules fn once, a local-units duration dur from now.
func (d *Drift) After(dur time.Duration, fn func()) (cancel func()) {
	target := d.base(d.Now().Add(dur))
	now := d.rt.Now()
	if target < now {
		target = now
	}
	return d.rt.After(target.Sub(now), fn)
}

// AtTimer schedules fn at the local-time instant t, implementing
// TimerRuntime so a Clock can run over a drifted runtime.
func (d *Drift) AtTimer(t types.Time, fn func()) sim.Timer {
	return d.rt.AtTimer(d.base(t), fn)
}

// Cancel removes a scheduled timer.
func (d *Drift) Cancel(tm sim.Timer) { d.rt.Cancel(tm) }
