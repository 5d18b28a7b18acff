package pacemaker

import (
	"math"
	"testing"
	"time"

	"lumiere/internal/types"
)

func TestNopDriver(t *testing.T) {
	var d Driver = NopDriver{}
	d.EnterView(3)
	d.LeaderStart(3, types.TimeInf) // must not panic
}

func TestNopObserver(t *testing.T) {
	var o Observer = NopObserver{}
	o.OnEnterView(1, 0)
	o.OnEnterEpoch(1, 0)
	o.OnHeavySync(0, 0) // must not panic
}

// recDriver records LeaderStart deadlines to pin the Driver contract.
type recDriver struct {
	views     []types.View
	deadlines []types.Time
}

func (d *recDriver) EnterView(v types.View) { d.views = append(d.views, v) }

func (d *recDriver) LeaderStart(v types.View, qcDeadline types.Time) {
	d.views = append(d.views, v)
	d.deadlines = append(d.deadlines, qcDeadline)
}

// TestDriverDeadlineConventions pins the LeaderStart deadline edge
// cases at this package's contract level: deadline values reach the
// driver unmodified (including the types.TimeInf no-deadline sentinel
// and a zero deadline), and TimeInf is the maximum representable Time —
// the property that makes an engine's `now > deadline` expiry check
// constant-false for protocols without the Γ/2−2Δ rule. The behavioral
// side of the convention (a QC suppressed past the deadline, produced
// exactly at it) is exercised against a real engine in
// internal/viewcore's tests.
func TestDriverDeadlineConventions(t *testing.T) {
	d := &recDriver{}
	var drv Driver = d
	finite := types.Time(0).Add(3 * time.Second)
	drv.LeaderStart(1, types.TimeInf)
	drv.LeaderStart(2, finite)
	drv.LeaderStart(3, 0)
	if len(d.deadlines) != 3 || d.deadlines[0] != types.TimeInf || d.deadlines[1] != finite || d.deadlines[2] != 0 {
		t.Fatalf("deadlines = %v", d.deadlines)
	}
	if types.TimeInf != types.Time(math.MaxInt64) {
		t.Fatalf("TimeInf = %d, not the maximum Time — no-deadline engines could read it as expired", int64(types.TimeInf))
	}
}
