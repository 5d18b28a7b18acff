package nk20

import (
	"testing"

	"lumiere/internal/baseline/baselinetest"
	"lumiere/internal/msg"
	"lumiere/internal/types"
)

type unit struct {
	*baselinetest.Unit
	pm *Pacemaker
}

func newUnit(id types.NodeID) *unit {
	u := baselinetest.NewUnit(id, 0)
	return &unit{u, New(u.Cfg, u.EP, u.Sched, u.Suite, u.Drv, nil, nil)}
}

func (u *unit) timeoutFrom(from types.NodeID, v types.View) *msg.Timeout {
	return &msg.Timeout{V: v, Sig: u.Sign(from, msg.TimeoutStatement(v))}
}

// TestTimeoutFanout: on expiry, timeout messages go to the leaders of the
// next f+1 views.
func TestTimeoutFanout(t *testing.T) {
	u := newUnit(3)
	fanout := u.Cfg.F + 1
	u.pm.Start()
	u.Sched.RunFor(Gamma(u.Cfg))
	if len(u.EP.Sends) != fanout {
		t.Fatalf("fanout = %d, want %d", len(u.EP.Sends), fanout)
	}
	for k, s := range u.EP.Sends {
		wantView := types.View(1 + k)
		if s.M.View() != wantView || s.To != u.pm.Leader(wantView) {
			t.Fatalf("fanout %d = %+v", k, s)
		}
	}
	// Re-arm: another fanout after another timeout.
	u.Sched.RunFor(Gamma(u.Cfg))
	if len(u.EP.Sends) != 2*fanout {
		t.Fatalf("no re-fanout: %d", len(u.EP.Sends))
	}
}

// TestOnlyViewLeaderAggregates: a node ignores timeout messages for views
// it does not lead.
func TestOnlyViewLeaderAggregates(t *testing.T) {
	u := newUnit(2) // p2 leads view 2
	u.pm.Start()
	u.pm.Handle(0, u.timeoutFrom(0, 1)) // p1's view: ignored
	u.pm.Handle(1, u.timeoutFrom(1, 1))
	if len(u.EP.Bcasts) != 0 {
		t.Fatal("aggregated a view it does not lead")
	}
	u.pm.Handle(0, u.timeoutFrom(0, 2))
	u.pm.Handle(1, u.timeoutFrom(1, 2))
	if len(u.EP.Bcasts) != 1 || u.EP.Bcasts[0].Kind() != msg.KindTC || u.EP.Bcasts[0].View() != 2 {
		t.Fatalf("bcasts = %v", u.EP.Bcasts)
	}
	// Aggregating moved nothing locally until the TC self-delivers via
	// the network (fake endpoint does not loop back).
	if u.pm.CurrentView() != 0 {
		t.Fatalf("view = %v", u.pm.CurrentView())
	}
}

// TestTCSkipsAhead: a TC for view v+k synchronizes directly into it.
func TestTCSkipsAhead(t *testing.T) {
	u := newUnit(3)
	u.pm.Start()
	u.pm.Handle(0, &msg.TC{V: 2, Agg: u.Cert(msg.TimeoutStatement(2), 2)})
	if u.pm.CurrentView() != 2 {
		t.Fatalf("view = %v, want 2", u.pm.CurrentView())
	}
}

// TestQCResponsiveEntry: QC chains advance views at network speed.
func TestQCResponsiveEntry(t *testing.T) {
	u := newUnit(3)
	u.pm.Start()
	u.pm.Handle(0, u.QC(0))
	u.pm.Handle(1, u.QC(1))
	if u.pm.CurrentView() != 2 {
		t.Fatalf("view = %v, want 2", u.pm.CurrentView())
	}
}

// TestStaleTimeoutIgnored: timeouts for past views are dropped.
func TestStaleTimeoutIgnored(t *testing.T) {
	u := newUnit(2)
	u.pm.Start()
	u.pm.Handle(0, u.QC(0))
	u.pm.Handle(1, u.QC(1)) // now in view 2
	u.pm.Handle(0, u.timeoutFrom(0, 2))
	u.pm.Handle(1, u.timeoutFrom(1, 2))
	if len(u.EP.Bcasts) != 0 {
		t.Fatal("aggregated a stale view")
	}
}
