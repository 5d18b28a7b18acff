package cogsworth

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

func (u *unit) wishFrom(from types.NodeID, v types.View) *msg.Wish {
	return &msg.Wish{V: v, Sig: u.Sign(from, msg.WishStatement(v))}
}

// TestTimeoutSendsWishToAggregator: on view expiry, a wish for the next
// view goes to lead(v+1); relay moves to the next aggregator after 4Δ.
func TestTimeoutSendsWishToAggregator(t *testing.T) {
	u := newUnit(3)
	u.pm.Start()
	if u.pm.CurrentView() != 0 {
		t.Fatal("did not start in view 0")
	}
	u.Sched.RunFor(Gamma(u.Cfg))
	if len(u.EP.Sends) != 1 {
		t.Fatalf("sends = %d", len(u.EP.Sends))
	}
	if u.EP.Sends[0].To != 1 || u.EP.Sends[0].M.View() != 1 {
		t.Fatalf("wish = %+v, want view-1 wish to p1", u.EP.Sends[0])
	}
	// Aggregator p1 is silent: after the retry timeout the wish goes
	// to p2.
	u.Sched.RunFor(retryTimeout(u.Cfg))
	if len(u.EP.Sends) != 2 || u.EP.Sends[1].To != 2 {
		t.Fatalf("relay = %+v", u.EP.Sends)
	}
}

// TestAggregatorFormsTC: f+1 wishes aggregate into a broadcast TC.
func TestAggregatorFormsTC(t *testing.T) {
	u := newUnit(1) // p1 = lead(1), the first aggregator for view 1
	u.pm.Start()
	u.pm.Handle(2, u.wishFrom(2, 1))
	if len(u.EP.Bcasts) != 0 {
		t.Fatal("TC below threshold")
	}
	u.pm.Handle(3, u.wishFrom(3, 1))
	if len(u.EP.Bcasts) != 1 || u.EP.Bcasts[0].Kind() != msg.KindTC {
		t.Fatalf("bcasts = %v", u.EP.Bcasts)
	}
}

// TestTCEntersView: receiving a valid TC synchronizes into the view.
func TestTCEntersView(t *testing.T) {
	u := newUnit(3)
	u.pm.Start()
	u.pm.Handle(0, &msg.TC{V: 5, Agg: u.Cert(msg.WishStatement(5), 2)})
	if u.pm.CurrentView() != 5 {
		t.Fatalf("view = %v, want 5", u.pm.CurrentView())
	}
}

// TestQCResponsiveEntry: a QC enters the next view immediately and leader
// duties start.
func TestQCResponsiveEntry(t *testing.T) {
	u := newUnit(1)
	u.pm.Start()
	u.pm.Handle(0, u.QC(0))
	if u.pm.CurrentView() != 1 {
		t.Fatalf("view = %v, want 1", u.pm.CurrentView())
	}
	if len(u.Drv.Started) == 0 || u.Drv.Started[len(u.Drv.Started)-1] != 1 {
		t.Fatalf("leader start = %v", u.Drv.Started)
	}
}

// TestEntryCancelsWishRelay: entering the wished view stops the retries.
func TestEntryCancelsWishRelay(t *testing.T) {
	u := newUnit(3)
	u.pm.Start()
	u.Sched.RunFor(Gamma(u.Cfg)) // begin sync for view 1
	before := len(u.EP.Sends)
	u.pm.Handle(0, u.QC(0)) // enter view 1 responsively
	u.Sched.RunFor(3 * retryTimeout(u.Cfg))
	// No further wishes for view 1; a new timeout cycle for view 2 may
	// begin (that is correct behavior), so only count view-1 wishes.
	for _, s := range u.EP.Sends[before:] {
		if s.M.Kind() == msg.KindWish && s.M.View() == 1 {
			t.Fatal("wish relay continued after entering the view")
		}
	}
}
