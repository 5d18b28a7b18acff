package fever

import (
	"testing"
	"time"

	"lumiere/internal/baseline/baselinetest"
	"lumiere/internal/msg"
	"lumiere/internal/types"
)

type unit struct {
	*baselinetest.Unit
	pm *Pacemaker
}

func newUnit(id types.NodeID, initial types.Time) *unit {
	u := baselinetest.NewUnit(id, initial)
	return &unit{u, New(u.Cfg, u.EP, u.Sched, u.Clk, u.Suite, u.Drv, nil, nil)}
}

func (u *unit) viewMsgFrom(from types.NodeID, v types.View) *msg.ViewMsg {
	return &msg.ViewMsg{V: v, Sig: u.Sign(from, msg.ViewStatement(v))}
}

func (u *unit) vcFor(v types.View) *msg.VC {
	return &msg.VC{V: v, Agg: u.Cert(msg.ViewStatement(v), 2)}
}

func TestGamma(t *testing.T) {
	c := types.NewConfig(1, 100*time.Millisecond)
	if Gamma(c) != 800*time.Millisecond {
		t.Fatalf("Γ = %v, want 2(x+1)Δ = 800ms", Gamma(c))
	}
}

// TestClockEntryAndViewMsg: entering an initial view on the clock sends a
// view message to lead(v) = ⌊v/2⌋ mod n.
func TestClockEntryAndViewMsg(t *testing.T) {
	u := newUnit(3, 0)
	u.pm.Start()
	u.Sched.RunUntil(0)
	if u.pm.CurrentView() != 0 {
		t.Fatalf("view = %v, want 0 at lc = c_0", u.pm.CurrentView())
	}
	if len(u.EP.Sends) != 1 || u.EP.Sends[0].To != 0 || u.EP.Sends[0].M.Kind() != msg.KindView {
		t.Fatalf("sends = %+v", u.EP.Sends)
	}
	u.Sched.RunFor(2 * Gamma(u.Cfg))
	if u.pm.CurrentView() != 2 {
		t.Fatalf("view = %v, want 2 (odd views are not clock-entered)", u.pm.CurrentView())
	}
}

// TestInitialSkewRespected: a clock starting at an offset enters the
// matching view.
func TestInitialSkewRespected(t *testing.T) {
	u := newUnit(3, types.Time(800*time.Millisecond)) // c_1
	u.pm.Start()
	u.Sched.RunFor(800 * time.Millisecond) // reach c_2
	if u.pm.CurrentView() != 2 {
		t.Fatalf("view = %v, want 2", u.pm.CurrentView())
	}
}

// TestLeaderVC: the leader aggregates f+1 view messages, broadcasts the
// VC and starts driving.
func TestLeaderVC(t *testing.T) {
	u := newUnit(0, 0)
	u.pm.Start()
	u.Sched.RunUntil(0) // enter view 0 (p0 leads 0,1)
	u.pm.Handle(1, u.viewMsgFrom(1, 0))
	u.pm.Handle(2, u.viewMsgFrom(2, 0))
	var vcs int
	for _, m := range u.EP.Bcasts {
		if m.Kind() == msg.KindVC {
			vcs++
		}
	}
	if vcs != 1 {
		t.Fatalf("VC broadcasts = %d", vcs)
	}
	if len(u.Drv.Started) != 1 || u.Drv.Started[0] != 0 {
		t.Fatalf("started = %v", u.Drv.Started)
	}
}

// TestVCBumpsIntoView: a VC for a future initial view bumps the clock to
// c_v, and the landing enters the view.
func TestVCBumpsIntoView(t *testing.T) {
	u := newUnit(3, 0)
	u.pm.Start()
	u.Sched.RunUntil(0)
	u.pm.Handle(0, u.vcFor(4))
	if u.pm.CurrentView() != 4 {
		t.Fatalf("view = %v, want 4", u.pm.CurrentView())
	}
	if u.Clk.Read() != types.Time(4)*types.Time(Gamma(u.Cfg)) {
		t.Fatalf("lc = %v, want c_4", u.Clk.Read())
	}
}

// TestQCEntersOddViewAndBumps: a QC for an even view enters its odd
// successor and bumps the clock to c_{v+1}.
func TestQCEntersOddViewAndBumps(t *testing.T) {
	u := newUnit(3, 0)
	u.pm.Start()
	u.Sched.RunUntil(0)
	u.pm.Handle(0, u.QC(0))
	if u.pm.CurrentView() != 1 {
		t.Fatalf("view = %v, want 1", u.pm.CurrentView())
	}
	if u.Clk.Read() != types.Time(Gamma(u.Cfg)) {
		t.Fatalf("lc = %v, want c_1", u.Clk.Read())
	}
	// QC for the odd view bumps to the next even boundary, entering it
	// via the clock trigger.
	u.pm.Handle(0, u.QC(1))
	if u.pm.CurrentView() != 2 {
		t.Fatalf("view = %v, want 2", u.pm.CurrentView())
	}
}

// TestBumpNeverBackwards: stale certificates cannot regress the clock.
func TestBumpNeverBackwards(t *testing.T) {
	u := newUnit(3, 0)
	u.pm.Start()
	u.pm.Handle(0, u.QC(9))
	lc := u.Clk.Read()
	u.pm.Handle(0, u.vcFor(2))
	u.pm.Handle(0, u.QC(3))
	if u.Clk.Read() != lc {
		t.Fatal("stale certificate moved the clock")
	}
}

// TestBadVCRejected: an unverifiable VC is ignored.
func TestBadVCRejected(t *testing.T) {
	u := newUnit(3, 0)
	u.pm.Start()
	vc := u.vcFor(4)
	vc.Agg.Bytes[0] = append([]byte(nil), vc.Agg.Bytes[0]...)
	vc.Agg.Bytes[0][0] ^= 1
	u.pm.Handle(0, vc)
	if u.Clk.Read() != 0 {
		t.Fatal("tampered VC bumped the clock")
	}
}
