package core

import (
	"testing"
	"time"

	"lumiere/internal/msg"
	"lumiere/internal/types"
)

// These tests pin down the §3.5 Δ-wait mechanism deterministically: a
// processor whose clock reaches c_{V(e+1)} by the passage of time while
// the success-deciding QCs are still in flight (< Δ away) must NOT start
// a heavy synchronization — with the Δ-wait it sees success(e) flip
// before sending; without it (the ablation) it broadcasts a spurious
// epoch-view message.

// reachBoundaryWithPendingSuccess drives a unit to the V(1) boundary by
// clock time with success(0) one QC short, then delivers the deciding QC
// Δ/2 after the pause.
func reachBoundaryWithPendingSuccess(t *testing.T, disable bool) (*unit, types.View) {
	t.Helper()
	u := newUnit(t, 1, func(c *Config) {
		c.BlocksPerEpoch = 1 // epoch = 2n = 8 views; 2 QCs per leader
		c.DisableDeltaWait = disable
	})
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	// Deliver QCs for views {0,1,2,3,4,6}: leaders p0, p1 complete
	// (2 QCs each) but p2 and p3 hold one each — success(0) needs a
	// third completed leader and is exactly one QC (view 5) short.
	for _, v := range []types.View{0, 1, 2, 3, 4, 6} {
		u.pm.Handle(2, u.QC(v))
	}
	if u.pm.SuccessOf(0) {
		t.Fatal("success flipped early")
	}
	// The QC for view 6 bumped lc to c_7; let the clock run Γ to the
	// boundary c_8 = c_{V(1)}: the processor pauses (lines 9-11).
	u.Sched.RunFor(u.conf.Gamma())
	if !u.Clk.Paused() {
		t.Fatalf("not paused at boundary: lc=%v view=%v", u.Clk.Read(), u.pm.CurrentView())
	}
	return u, 8
}

func countEpochViewSends(u *unit, w types.View) int {
	n := 0
	for _, m := range u.EP.Bcasts {
		if m.Kind() == msg.KindEpochView && m.View() == w {
			n++
		}
	}
	return n
}

// TestDeltaWaitSuppressesSpuriousHeavySync: with the Δ-wait, the deciding
// QC arriving Δ/2 after the pause flips success before the send fires.
func TestDeltaWaitSuppressesSpuriousHeavySync(t *testing.T) {
	u, boundary := reachBoundaryWithPendingSuccess(t, false)
	u.Sched.RunFor(50 * time.Millisecond) // Δ/2 of the Δ = 100ms wait
	u.pm.Handle(2, u.QC(5))               // deciding QC: success(0) = 1
	if !u.pm.SuccessOf(0) {
		t.Fatal("success did not flip")
	}
	if u.Clk.Paused() {
		t.Fatal("success flip did not enter the epoch")
	}
	u.Sched.RunFor(200 * time.Millisecond) // past the Δ-wait deadline
	if got := countEpochViewSends(u, boundary); got != 0 {
		t.Fatalf("spurious heavy sync despite Δ-wait: %d epoch-view sends", got)
	}
	if u.pm.CurrentEpoch() != 1 {
		t.Fatalf("epoch = %v, want 1", u.pm.CurrentEpoch())
	}
	u.requireClean(t)
}

// TestAblationWithoutDeltaWaitSendsSpuriously: the same timing without
// the wait broadcasts the epoch-view message the instant the clock pauses
// — the spurious Θ(n²) sync the paper's final fix removes.
func TestAblationWithoutDeltaWaitSendsSpuriously(t *testing.T) {
	u, boundary := reachBoundaryWithPendingSuccess(t, true)
	if got := countEpochViewSends(u, boundary); got != 1 {
		t.Fatalf("epoch-view sends = %d, want immediate spurious send", got)
	}
	// The processor still recovers once the deciding QC arrives.
	u.Sched.RunFor(50 * time.Millisecond)
	u.pm.Handle(2, u.QC(5))
	if u.Clk.Paused() || u.pm.CurrentEpoch() != 1 {
		t.Fatalf("did not recover: epoch=%v paused=%v", u.pm.CurrentEpoch(), u.Clk.Paused())
	}
	u.requireClean(t)
}

// TestDeltaWaitTimesOutWhenSuccessNeverComes: when the epoch genuinely
// fails the success criterion, the Δ-wait expires and the heavy
// synchronization proceeds — the wait must not cost liveness.
func TestDeltaWaitTimesOutWhenSuccessNeverComes(t *testing.T) {
	u, boundary := reachBoundaryWithPendingSuccess(t, false)
	u.Sched.RunFor(150 * time.Millisecond) // past Δ = 100ms
	if got := countEpochViewSends(u, boundary); got != 1 {
		t.Fatalf("epoch-view sends = %d, want 1 after the wait expires", got)
	}
	if !u.Clk.Paused() {
		t.Fatal("should remain paused until an EC or success")
	}
	u.requireClean(t)
}
