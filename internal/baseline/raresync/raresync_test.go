package raresync

import (
	"testing"
	"time"

	"lumiere/internal/baseline"
	"lumiere/internal/baseline/baselinetest"
	"lumiere/internal/msg"
	"lumiere/internal/types"
)

type unit struct {
	*baselinetest.Unit
	pm *baseline.EpochSync
}

func newUnit(id types.NodeID) *unit {
	u := baselinetest.NewUnit(id, 0)
	return &unit{u, New(u.Cfg, u.EP, u.Sched, u.Clk, u.Suite, u.Drv, nil, nil)}
}

func (u *unit) epochViewFrom(from types.NodeID, v types.View) *msg.EpochViewMsg {
	return &msg.EpochViewMsg{V: v, Sig: u.Sign(from, msg.EpochViewStatement(v))}
}

func TestGeometry(t *testing.T) {
	c := types.NewConfig(3, 100*time.Millisecond)
	if Gamma(c) != 400*time.Millisecond || baseline.EpochLen(c) != 4 {
		t.Fatalf("geometry: Γ=%v epoch=%d", Gamma(c), baseline.EpochLen(c))
	}
}

func TestBootPausesAndSyncs(t *testing.T) {
	u := newUnit(0)
	u.pm.Start()
	if !u.Clk.Paused() || len(u.EP.Bcasts) != 1 {
		t.Fatalf("boot: paused=%v bcasts=%d", u.Clk.Paused(), len(u.EP.Bcasts))
	}
}

func TestECEntersEpochThenClockSchedulesViews(t *testing.T) {
	u := newUnit(1)
	u.pm.Start()
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	if u.pm.CurrentView() != 0 || u.Clk.Paused() {
		t.Fatalf("entry failed: view=%v", u.pm.CurrentView())
	}
	u.Sched.RunFor(Gamma(u.Cfg))
	if u.pm.CurrentView() != 1 {
		t.Fatalf("view = %v after Γ, want 1", u.pm.CurrentView())
	}
	if len(u.Drv.Started) == 0 || u.Drv.Started[len(u.Drv.Started)-1] != 1 {
		t.Fatalf("leader starts = %v (p1 leads view 1)", u.Drv.Started)
	}
}

// TestQCsDoNotAdvanceViews: the defining non-responsiveness — QCs have no
// effect on view entry.
func TestQCsDoNotAdvanceViews(t *testing.T) {
	u := newUnit(1)
	u.pm.Start()
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	u.pm.Handle(0, u.QC(0))
	if u.pm.CurrentView() != 0 {
		t.Fatalf("QC advanced a RareSync view to %v", u.pm.CurrentView())
	}
}

func TestNextEpochBoundaryPausesAgain(t *testing.T) {
	u := newUnit(1)
	u.pm.Start()
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	// Epoch 0 = views {0, 1} (f+1 = 2); boundary at c_2.
	u.Sched.RunFor(2 * Gamma(u.Cfg))
	if !u.Clk.Paused() {
		t.Fatal("did not pause at the next boundary")
	}
	found := false
	for _, m := range u.EP.Bcasts {
		if m.Kind() == msg.KindEpochView && m.View() == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("no heavy sync for epoch 1")
	}
}
