package lp22

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
	if Gamma(c) != 400*time.Millisecond {
		t.Fatalf("Γ = %v, want (x+1)Δ = 400ms", Gamma(c))
	}
	if baseline.EpochLen(c) != 4 {
		t.Fatalf("epoch = %d, want f+1", baseline.EpochLen(c))
	}
}

// TestBootImmediateHeavySync: LP22 pauses at c_0 and broadcasts its
// epoch-view message immediately (no Δ-wait, no success criterion).
func TestBootImmediateHeavySync(t *testing.T) {
	u := newUnit(0)
	u.pm.Start()
	if !u.Clk.Paused() {
		t.Fatal("not paused at boot")
	}
	if u.EP.CountBcast(msg.KindEpochView) != 1 {
		t.Fatal("epoch-view not sent immediately")
	}
}

// TestECAssemblyBroadcastsAndEnters: 2f+1 epoch-view messages form an EC
// which is re-broadcast (§3.2) before entering the epoch.
func TestECAssemblyBroadcastsAndEnters(t *testing.T) {
	u := newUnit(0) // p0 = lead(0) under v mod n
	u.pm.Start()
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	if u.EP.CountBcast(msg.KindEC) != 1 {
		t.Fatal("EC not re-broadcast")
	}
	if u.pm.CurrentView() != 0 || u.pm.CurrentEpoch() != 0 || u.Clk.Paused() {
		t.Fatalf("entry failed: view=%v epoch=%v paused=%v", u.pm.CurrentView(), u.pm.CurrentEpoch(), u.Clk.Paused())
	}
	if len(u.Drv.Started) != 1 || u.Drv.Started[0] != 0 {
		t.Fatalf("leader of view 0 did not start: %v", u.Drv.Started)
	}
	// A non-leader unit enters without starting.
	u3 := newUnit(3)
	u3.pm.Start()
	for i := 0; i < 3; i++ {
		u3.pm.Handle(types.NodeID(i), u3.epochViewFrom(types.NodeID(i), 0))
	}
	if u3.pm.CurrentView() != 0 || len(u3.Drv.Started) != 0 {
		t.Fatalf("non-leader: view=%v started=%v", u3.pm.CurrentView(), u3.Drv.Started)
	}
}

// TestQCEntersNextViewWithoutBump: LP22's defining weakness — QC entry
// advances the view but never the clock.
func TestQCEntersNextViewWithoutBump(t *testing.T) {
	u := newUnit(1)
	u.pm.Start()
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	lcBefore := u.Clk.Read()
	u.pm.Handle(2, u.QC(0))
	if u.pm.CurrentView() != 1 {
		t.Fatalf("view = %v, want 1", u.pm.CurrentView())
	}
	if u.Clk.Read() != lcBefore {
		t.Fatal("LP22 must not bump clocks on QCs")
	}
	// View 1's leader is p1 (this node): responsive LeaderStart.
	if len(u.Drv.Started) == 0 || u.Drv.Started[len(u.Drv.Started)-1] != 1 {
		t.Fatalf("leader start = %v", u.Drv.Started)
	}
}

// TestQCAtEpochBoundaryWaitsForClock: a QC for the last view of an epoch
// does not enter the next epoch; the processor waits for its clock.
func TestQCAtEpochBoundaryWaitsForClock(t *testing.T) {
	u := newUnit(1)
	u.pm.Start()
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	u.pm.Handle(2, u.QC(0))
	u.pm.Handle(2, u.QC(1)) // last view of epoch 0 (f+1 = 2 views)
	if u.pm.CurrentView() != 1 {
		t.Fatalf("view = %v, want still 1", u.pm.CurrentView())
	}
	// The clock eventually reaches c_2 = 2Γ and starts the next heavy
	// sync.
	u.Sched.RunFor(2 * Gamma(u.Cfg))
	if !u.Clk.Paused() {
		t.Fatal("did not pause at the next epoch boundary")
	}
	found := false
	for _, m := range u.EP.Bcasts {
		if m.Kind() == msg.KindEpochView && m.View() == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("no epoch-view message for V(1)")
	}
}

// TestClockEntersViewsWithinEpoch: absent QCs, views are entered on the
// clock schedule.
func TestClockEntersViewsWithinEpoch(t *testing.T) {
	u := newUnit(2)
	u.pm.Start()
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	u.Sched.RunFor(Gamma(u.Cfg))
	if u.pm.CurrentView() != 1 {
		t.Fatalf("view = %v, want 1 after Γ", u.pm.CurrentView())
	}
}

// TestForeignECMessageAccepted: a relayed compact EC certificate enters
// the epoch.
func TestForeignECMessageAccepted(t *testing.T) {
	u := newUnit(1)
	u.pm.Start()
	agg := u.Cert(msg.EpochViewStatement(0), 3)
	u.pm.Handle(3, &msg.EC{V: 0, Agg: agg})
	if u.pm.CurrentEpoch() != 0 {
		t.Fatal("EC message rejected")
	}
	// Undersized EC rejected.
	u2 := newUnit(1)
	u2.pm.Start()
	u2.pm.Handle(3, &msg.EC{V: 0, Agg: agg.Truncate(2)})
	if u2.pm.CurrentEpoch() != types.NoEpoch {
		t.Fatal("undersized EC accepted")
	}
}
