package core

import (
	"reflect"
	"testing"
	"time"

	"lumiere/internal/baseline/baselinetest"
	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// unit is a single Lumiere pacemaker on the shared one-processor fixture
// (f = 1, n = 4, Δ = 100ms), with round-robin leaders for predictability
// and the invariant checker on.
type unit struct {
	*baselinetest.Unit
	conf Config
	pm   *Pacemaker
}

func newUnit(t *testing.T, id types.NodeID, mutate func(*Config)) *unit {
	t.Helper()
	u := &unit{Unit: baselinetest.NewUnit(id, 0)}
	u.conf = DefaultConfig(u.Cfg)
	u.conf.RoundRobin = true
	u.conf.CheckInvariants = true
	if mutate != nil {
		mutate(&u.conf)
	}
	u.pm = New(u.conf, u.EP, u.Sched, u.Clk, u.Suite, u.Drv, nil, nil)
	return u
}

func (u *unit) requireClean(t *testing.T) {
	t.Helper()
	for _, v := range u.pm.Violations() {
		t.Errorf("violation: %s", v)
	}
}

// broadcastsOf returns the recorded broadcasts of kind k.
func (u *unit) broadcastsOf(k msg.Kind) (out []msg.Message) {
	for _, m := range u.EP.Bcasts {
		if m.Kind() == k {
			out = append(out, m)
		}
	}
	return out
}

// sendsOf returns the recorded point-to-point sends of kind k.
func (u *unit) sendsOf(k msg.Kind) (out []baselinetest.Sent) {
	for _, s := range u.EP.Sends {
		if s.M.Kind() == k {
			out = append(out, s)
		}
	}
	return out
}

// viewMsgFrom builds a signed view-v message.
func (u *unit) viewMsgFrom(from types.NodeID, v types.View) *msg.ViewMsg {
	return &msg.ViewMsg{V: v, Sig: u.Sign(from, msg.ViewStatement(v))}
}

// epochViewFrom builds a signed epoch-view-v message.
func (u *unit) epochViewFrom(from types.NodeID, v types.View) *msg.EpochViewMsg {
	return &msg.EpochViewMsg{V: v, Sig: u.Sign(from, msg.EpochViewStatement(v))}
}

// vcFor builds a valid VC (f+1 view messages) for view v.
func (u *unit) vcFor(v types.View) *msg.VC {
	return &msg.VC{V: v, Agg: u.Cert(msg.ViewStatement(v), u.Cfg.Majority())}
}

// ecFor builds an EC (2f+1 epoch-view messages) for epoch view v.
func (u *unit) ecFor(v types.View) *msg.EC {
	return &msg.EC{V: v, Agg: u.Cert(msg.EpochViewStatement(v), u.Cfg.Quorum())}
}

// tcFor builds a TC (f+1 epoch-view messages) for epoch view v.
func (u *unit) tcFor(v types.View) *msg.TC {
	return &msg.TC{V: v, Agg: u.Cert(msg.EpochViewStatement(v), u.Cfg.Majority())}
}

// TestBootstrapPausesAndSendsEpochView: at start lc = 0 = c_0 with
// success(-1) = 0 (lines 9-11): pause, wait Δ, broadcast epoch-view-0.
func TestBootstrapPausesAndSendsEpochView(t *testing.T) {
	u := newUnit(t, 0, nil)
	u.pm.Start()
	if !u.Clk.Paused() {
		t.Fatal("not paused at boot boundary")
	}
	if len(u.broadcastsOf(msg.KindEpochView)) != 0 {
		t.Fatal("epoch-view sent before the Δ-wait")
	}
	u.Sched.RunFor(100 * time.Millisecond)
	if got := u.broadcastsOf(msg.KindEpochView); len(got) != 1 || got[0].View() != 0 {
		t.Fatalf("epoch-view sends = %v", got)
	}
	if u.pm.CurrentView() != types.NoView {
		t.Fatal("entered a view without an EC")
	}
	u.requireClean(t)
}

// TestDisableDeltaWaitSendsImmediately covers the ablation switch.
func TestDisableDeltaWaitSendsImmediately(t *testing.T) {
	u := newUnit(t, 0, func(c *Config) { c.DisableDeltaWait = true })
	u.pm.Start()
	if got := u.broadcastsOf(msg.KindEpochView); len(got) != 1 {
		t.Fatalf("epoch-view sends = %d, want immediate", len(got))
	}
}

// TestECEntersEpochAndSendsViewMsg: an EC for view 0 unpauses, enters
// epoch 0 / view 0, and (line 28) sends a view-0 message to lead(0).
func TestECEntersEpochAndSendsViewMsg(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	if u.Clk.Paused() {
		t.Fatal("still paused after EC")
	}
	if u.pm.CurrentView() != 0 || u.pm.CurrentEpoch() != 0 {
		t.Fatalf("position = (%v, %v)", u.pm.CurrentView(), u.pm.CurrentEpoch())
	}
	vm := u.sendsOf(msg.KindView)
	if len(vm) != 1 || vm[0].To != 0 || vm[0].M.View() != 0 {
		t.Fatalf("view msgs = %+v, want view-0 to p0", vm)
	}
	if len(u.Drv.Entered) == 0 || u.Drv.Entered[len(u.Drv.Entered)-1] != 0 {
		t.Fatalf("driver entered = %v", u.Drv.Entered)
	}
	u.requireClean(t)
}

// TestECImpliesTCRelay: per §3.5, a processor seeing the epoch change
// must contribute its own epoch-view message (line 21, via the implied
// TC).
func TestECImpliesTCRelay(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	if got := u.broadcastsOf(msg.KindEpochView); len(got) != 1 {
		t.Fatalf("epoch-view relays = %d, want 1", len(got))
	}
}

// TestTCBumpsAndPauses: a TC for a future epoch view (lines 16-21) bumps
// the clock to c_v, moves to view v-1, sends the epoch-view message, and
// the landing triggers the pause (success = 0).
func TestTCBumpsAndPauses(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))    // enter epoch 0 first
	boundary := u.conf.EpochLen() // V(1)
	u.pm.Handle(2, u.tcFor(boundary))
	if u.Clk.Read() != types.Time(boundary)*types.Time(u.conf.Gamma()) {
		t.Fatalf("lc = %v, want c_%d", u.Clk.Read(), boundary)
	}
	if u.pm.CurrentView() != boundary-1 {
		t.Fatalf("view = %v, want %d (line 20)", u.pm.CurrentView(), boundary-1)
	}
	if !u.Clk.Paused() {
		t.Fatal("not paused at the TC'd boundary")
	}
	found := false
	for _, m := range u.broadcastsOf(msg.KindEpochView) {
		if m.View() == boundary {
			found = true
		}
	}
	if !found {
		t.Fatal("line 21 epoch-view message not sent")
	}
	u.requireClean(t)
}

// TestQCAdvancesViewAndBumps: lines 44-49 for a non-epoch successor.
func TestQCAdvancesViewAndBumps(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(2, u.QC(0))
	if u.pm.CurrentView() != 1 {
		t.Fatalf("view = %v, want 1", u.pm.CurrentView())
	}
	if u.Clk.Read() != types.Time(u.conf.Gamma()) {
		t.Fatalf("lc = %v, want c_1", u.Clk.Read())
	}
	// QC for view 1 enters initial view 2 and (line 28 at the bump
	// landing) sends a view-2 message.
	u.pm.Handle(2, u.QC(1))
	if u.pm.CurrentView() != 2 {
		t.Fatalf("view = %v, want 2", u.pm.CurrentView())
	}
	vm := u.sendsOf(msg.KindView)
	last := vm[len(vm)-1]
	if last.M.View() != 2 || last.To != 1 {
		t.Fatalf("last view msg %+v, want view-2 to p1 (round robin)", last)
	}
	u.requireClean(t)
}

// TestQCIntoEpochBoundary: line 49 — a QC for the last view of an epoch
// moves to that view (not past it) and the landing pauses at the
// boundary.
func TestQCIntoEpochBoundary(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	last := u.conf.EpochLen() - 1 // non-initial view before V(1)
	u.pm.Handle(2, u.QC(last))
	if u.pm.CurrentView() != last {
		t.Fatalf("view = %v, want %v (line 49)", u.pm.CurrentView(), last)
	}
	if !u.Clk.Paused() {
		t.Fatal("boundary landing did not pause (success=0)")
	}
	u.requireClean(t)
}

// TestVCEntry: lines 36-40 — a VC for a future initial view enters it
// directly, bumping the clock, even across the epoch boundary.
func TestVCEntry(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	target := u.conf.EpochLen() + 4 // initial, inside epoch 1
	u.pm.Handle(2, u.vcFor(target))
	if u.pm.CurrentView() != target || u.pm.CurrentEpoch() != 1 {
		t.Fatalf("position = (%v, %v), want (%v, 1)", u.pm.CurrentView(), u.pm.CurrentEpoch(), target)
	}
	u.requireClean(t)
}

// TestVCForEpochViewSkipsHeavySync: a VC for the first view of epoch 1
// enters it (lines 36-40); the bump lands on c_{V(1)}, and that boundary —
// already passed — must not pause the clock or start a heavy
// synchronization.
func TestVCForEpochViewSkipsHeavySync(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	boundary := u.conf.EpochLen() // V(1)
	u.pm.Handle(2, u.vcFor(boundary))
	if u.pm.CurrentView() != boundary || u.pm.CurrentEpoch() != 1 {
		t.Fatalf("position = (%v, %v), want (%v, 1)", u.pm.CurrentView(), u.pm.CurrentEpoch(), boundary)
	}
	u.Sched.RunFor(2 * u.Cfg.Delta)
	if u.Clk.Paused() {
		t.Fatal("clock paused at the boundary of a view already entered")
	}
	if got := countEpochViewSends(u, boundary); got != 0 {
		t.Fatalf("%d epoch-view messages for a view already entered", got)
	}
	u.requireClean(t)
}

// TestVCReplayIgnored: "upon first seeing a VC" — a second delivery of
// the VC for the current view enters nothing.
func TestVCReplayIgnored(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(2, u.vcFor(4))
	entered, sends := len(u.Drv.Entered), len(u.EP.Sends)
	u.pm.Handle(3, u.vcFor(4))
	if u.pm.CurrentView() != 4 || len(u.Drv.Entered) != entered || len(u.EP.Sends) != sends {
		t.Fatalf("replayed VC was acted on: view %v, entered %v", u.pm.CurrentView(), u.Drv.Entered)
	}
	u.requireClean(t)
}

// TestPendingViewMsgsOnSkip: line 46 — a QC far ahead triggers view
// messages for every skipped initial view.
func TestPendingViewMsgsOnSkip(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(2, u.QC(8)) // skip views 1..8
	views := make(map[types.View]bool)
	for _, s := range u.sendsOf(msg.KindView) {
		views[s.M.View()] = true
	}
	// Line 46 covers initial views in [view(p), 8) — view 8 itself is
	// jumped over (the bump lands on c_9), exactly the paper's
	// semantics.
	for v := types.View(0); v < 8; v += 2 {
		if !views[v] {
			t.Fatalf("missing pending view message for %v (have %v)", v, views)
		}
	}
	if views[8] {
		t.Fatal("view-8 message sent despite the bump jumping over c_8")
	}
	u.requireClean(t)
}

// TestSuccessCriterionFlipsAtThreshold: success(e) requires 2f+1 distinct
// leaders each with 2·BlocksPerEpoch QCs.
func TestSuccessCriterionFlipsAtThreshold(t *testing.T) {
	u := newUnit(t, 1, func(c *Config) { c.BlocksPerEpoch = 1 }) // epoch = 2n = 8 views, 2 QCs per leader
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	// Round robin: views (0,1)→p0, (2,3)→p1, (4,5)→p2, (6,7)→p3.
	// Feed QCs for leaders p0, p1 fully and p2 partially: no success.
	for _, v := range []types.View{0, 1, 2, 3, 4} {
		u.pm.Handle(2, u.QC(v))
	}
	if u.pm.SuccessOf(0) {
		t.Fatal("success flipped below threshold")
	}
	u.pm.Handle(2, u.QC(5)) // completes p2: now 3 = 2f+1 leaders
	if !u.pm.SuccessOf(0) {
		t.Fatal("success did not flip at 2f+1 leaders")
	}
	u.requireClean(t)
}

// TestSuccessSkipsHeavySync: with success(0) set, reaching c_{V(1)}
// enters epoch 1 as a standard initial view (lines 13-14): no pause, no
// epoch-view message, and a view message to the boundary leader.
func TestSuccessSkipsHeavySync(t *testing.T) {
	u := newUnit(t, 1, func(c *Config) { c.BlocksPerEpoch = 1 })
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	for v := types.View(0); v < 8; v++ {
		u.pm.Handle(2, u.QC(v))
	}
	if !u.pm.SuccessOf(0) {
		t.Fatal("success not satisfied")
	}
	// The QC for view 7 bumped lc to c_8 = c_{V(1)}: the boundary
	// trigger must have entered epoch 1 directly.
	if u.pm.CurrentEpoch() != 1 || u.pm.CurrentView() != 8 {
		t.Fatalf("position = (%v, %v), want (8, 1)", u.pm.CurrentView(), u.pm.CurrentEpoch())
	}
	if u.Clk.Paused() {
		t.Fatal("paused despite success criterion")
	}
	for _, m := range u.broadcastsOf(msg.KindEpochView) {
		if m.View() == 8 {
			t.Fatal("heavy sync started despite success")
		}
	}
	u.requireClean(t)
}

// TestSuccessFlipUnpauses: a processor paused at V(e+1) enters the epoch
// when success(e) flips (line 10's success clause + lines 13-14).
func TestSuccessFlipUnpauses(t *testing.T) {
	u := newUnit(t, 1, func(c *Config) { c.BlocksPerEpoch = 1 })
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	// Reach the boundary without success: QC for view 7 only.
	u.pm.Handle(2, u.QC(7))
	if !u.Clk.Paused() || u.pm.CurrentView() != 7 {
		t.Fatalf("not paused at boundary: view=%v paused=%v", u.pm.CurrentView(), u.Clk.Paused())
	}
	// Late QCs for the earlier views flip success(0).
	for v := types.View(0); v < 7; v++ {
		u.pm.Handle(2, u.QC(v))
	}
	if !u.pm.SuccessOf(0) {
		t.Fatal("success not satisfied")
	}
	if u.Clk.Paused() || u.pm.CurrentView() != 8 || u.pm.CurrentEpoch() != 1 {
		t.Fatalf("did not enter epoch on success flip: view=%v epoch=%v paused=%v",
			u.pm.CurrentView(), u.pm.CurrentEpoch(), u.Clk.Paused())
	}
	u.requireClean(t)
}

// TestTCForPauseViewDoesNotUnpause: line 10 — only a TC for a view
// *greater* than the pause view unpauses.
func TestTCForPauseViewDoesNotUnpause(t *testing.T) {
	u := newUnit(t, 1, func(c *Config) { c.BlocksPerEpoch = 1 })
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(2, u.QC(7)) // paused at V(1) = 8
	u.pm.Handle(2, u.tcFor(8))
	if !u.Clk.Paused() {
		t.Fatal("TC for the pause view unpaused")
	}
	// But it must have triggered the epoch-view send (line 21).
	found := false
	for _, m := range u.broadcastsOf(msg.KindEpochView) {
		if m.View() == 8 {
			found = true
		}
	}
	if !found {
		t.Fatal("TC did not trigger the epoch-view message")
	}
	u.requireClean(t)
}

// TestQCUnpausesAtOrAbovePauseView: line 10 — a QC for a view ≥ the
// pause view unpauses.
func TestQCUnpausesAtOrAbovePauseView(t *testing.T) {
	u := newUnit(t, 1, func(c *Config) { c.BlocksPerEpoch = 1 })
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(2, u.QC(7)) // paused at 8
	u.pm.Handle(2, u.QC(8)) // QC for the pause view
	if u.Clk.Paused() {
		t.Fatal("QC for pause view did not unpause")
	}
	if u.pm.CurrentView() != 9 {
		t.Fatalf("view = %v, want 9", u.pm.CurrentView())
	}
	u.requireClean(t)
}

// TestLeaderFormsVCAndStarts: lines 32-34 — the leader aggregates f+1
// view messages into a VC, broadcasts it, and starts driving the view
// with the Γ/2−2Δ deadline.
func TestLeaderFormsVCAndStarts(t *testing.T) {
	u := newUnit(t, 0, nil) // p0 leads views 0,1 under round robin
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(1, u.viewMsgFrom(1, 0))
	if len(u.broadcastsOf(msg.KindVC)) != 0 {
		t.Fatal("VC formed below f+1")
	}
	u.pm.Handle(2, u.viewMsgFrom(2, 0))
	// p0's own view-0 message went through the endpoint (not self-
	// delivered by the fake); two remote ones reach f+1 = 2.
	vcs := u.broadcastsOf(msg.KindVC)
	if len(vcs) != 1 || vcs[0].View() != 0 {
		t.Fatalf("VCs = %v", vcs)
	}
	if len(u.Drv.Started) != 1 || u.Drv.Started[0] != 0 {
		t.Fatalf("driver started = %v", u.Drv.Started)
	}
	wantDL := u.Sched.Now().Add(u.conf.QCWindow())
	if u.Drv.Deadlines[0] != wantDL {
		t.Fatalf("deadline = %v, want %v (VC send + Γ/2−2Δ)", u.Drv.Deadlines[0], wantDL)
	}
	u.requireClean(t)
}

// TestNonInitialLeaderStartAnchoredAtQC: the leader of the odd view of
// its pair starts it upon its own QC with a fresh deadline.
func TestNonInitialLeaderStartAnchoredAtQC(t *testing.T) {
	u := newUnit(t, 0, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.Sched.RunFor(70 * time.Millisecond)
	u.pm.Handle(0, u.QC(0)) // p0's own QC for view 0
	if len(u.Drv.Started) == 0 || u.Drv.Started[len(u.Drv.Started)-1] != 1 {
		t.Fatalf("driver started = %v, want view 1", u.Drv.Started)
	}
	wantDL := u.Sched.Now().Add(u.conf.QCWindow())
	if u.Drv.Deadlines[len(u.Drv.Deadlines)-1] != wantDL {
		t.Fatalf("deadline = %v, want %v", u.Drv.Deadlines[len(u.Drv.Deadlines)-1], wantDL)
	}
	u.requireClean(t)
}

// TestInvalidCertificatesRejected: forged or undersized certificates are
// ignored. (QCs are the engine's to verify — see the forged-QC tests of
// viewcore and hotstuff.)
func TestInvalidCertificatesRejected(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	// EC with only f+1 signatures (that's a TC, not an EC).
	short := u.tcFor(0)
	u.pm.Handle(2, &msg.EC{V: 0, Agg: short.Agg})
	if u.pm.CurrentEpoch() != types.NoEpoch {
		t.Fatal("undersized EC accepted")
	}
	// View message with mismatched claimed sender.
	u2 := newUnit(t, 0, nil)
	u2.pm.Start()
	u2.pm.Handle(2, u2.ecFor(0))
	u2.pm.Handle(3, u2.viewMsgFrom(1, 0)) // from=3 but signed by 1
	u2.pm.Handle(2, u2.viewMsgFrom(2, 0))
	if len(u2.broadcastsOf(msg.KindVC)) != 0 {
		t.Fatal("mismatched view message counted toward VC")
	}
	u.requireClean(t)
}

// TestEpochViewAssemblyThresholds: f+1 broadcast epoch-view messages act
// as a TC; 2f+1 act as an EC.
func TestEpochViewAssemblyThresholds(t *testing.T) {
	u := newUnit(t, 3, nil)
	u.pm.Start()
	u.pm.Handle(0, u.epochViewFrom(0, 0))
	if u.pm.CurrentEpoch() != types.NoEpoch || u.Clk.Read() != 0 {
		t.Fatal("single epoch-view message had effect")
	}
	u.pm.Handle(1, u.epochViewFrom(1, 0))
	// f+1 = 2 distinct: TC processed — and at boot lc is already c_0,
	// so no bump, but the epoch-view relay (line 21) fires.
	if len(u.broadcastsOf(msg.KindEpochView)) != 1 {
		t.Fatal("TC assembly did not trigger relay")
	}
	if u.pm.CurrentEpoch() != types.NoEpoch {
		t.Fatal("entered epoch on TC alone")
	}
	u.pm.Handle(2, u.epochViewFrom(2, 0))
	if u.pm.CurrentEpoch() != 0 || u.pm.CurrentView() != 0 {
		t.Fatalf("EC assembly did not enter epoch: (%v, %v)", u.pm.CurrentView(), u.pm.CurrentEpoch())
	}
	u.requireClean(t)
}

// TestBasicVariantBroadcastsEC: §3.4 — the basic variant re-broadcasts
// the combined EC and never uses the success criterion.
func TestBasicVariantBroadcastsEC(t *testing.T) {
	u := newUnit(t, 3, func(c *Config) { c.Variant = VariantBasic })
	u.pm.Start()
	if len(u.broadcastsOf(msg.KindEpochView)) != 1 {
		t.Fatal("basic variant must send epoch-view immediately (no Δ-wait)")
	}
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	if len(u.broadcastsOf(msg.KindEC)) != 1 {
		t.Fatal("basic variant did not broadcast the EC")
	}
	if u.pm.CurrentEpoch() != 0 {
		t.Fatal("did not enter epoch")
	}
	u.requireClean(t)
}

// countingSuite counts the single-signature verifications asked of it;
// Aggregate and VerifyAggregate go to the wrapped suite uncounted.
type countingSuite struct {
	crypto.Suite
	verified int
}

func (s *countingSuite) Verify(data []byte, sig crypto.Signature) error {
	s.verified++
	return s.Suite.Verify(data, sig)
}

// TestHeavySyncKeepsOnlyWhatItUses: at n = 7, f = 2 all seven epoch-view
// messages for view 0 arrive. Both variants verify the 2f+1 that reach
// the EC and drop the rest unverified. The full variant, which relays
// neither certificate, stores no signature; Basic stores the first 2f+1
// arrivals and relays their aggregate as its EC.
func TestHeavySyncKeepsOnlyWhatItUses(t *testing.T) {
	base := types.NewConfig(2, 100*time.Millisecond)
	q := base.Quorum()
	arrivals := []types.NodeID{4, 6, 0, 3, 5, 1, 2}
	for _, variant := range []Variant{VariantFull, VariantBasic} {
		t.Run(variant.String(), func(t *testing.T) {
			sched := sim.New(1)
			keys := crypto.NewSimSuite(base.N, 5)
			suite := &countingSuite{Suite: keys}
			ep := &baselinetest.Endpoint{Node: 0}
			conf := DefaultConfig(base)
			conf.Variant, conf.RoundRobin, conf.CheckInvariants = variant, true, true
			pm := New(conf, ep, sched, clock.New(sched, 0), suite, &baselinetest.Driver{}, nil, nil)
			pm.Start()
			stmt := msg.EpochViewStatement(0)
			sigs := make([]crypto.Signature, len(arrivals))
			for i, from := range arrivals {
				sigs[i] = keys.SignerFor(from).Sign(stmt)
				pm.Handle(from, &msg.EpochViewMsg{V: 0, Sig: sigs[i]})
			}
			if pm.CurrentEpoch() != 0 || pm.CurrentView() != 0 {
				t.Fatalf("position = (%v, %v), want (0, 0)", pm.CurrentView(), pm.CurrentEpoch())
			}
			if suite.verified != q {
				t.Fatalf("verified %d of %d epoch-view messages, want the %d up to the EC", suite.verified, len(arrivals), q)
			}
			for _, v := range pm.Violations() {
				t.Errorf("violation: %s", v)
			}
			stored, ecs := pm.EpochCerts.Stored(0), 0
			var ec *msg.EC
			for _, m := range ep.Bcasts {
				if m.Kind() == msg.KindEC {
					ec, ecs = m.(*msg.EC), ecs+1
				}
			}
			if variant == VariantFull {
				if stored != 0 || ecs != 0 {
					t.Fatalf("full variant stored %d signatures and relayed %d ECs, want 0 and 0", stored, ecs)
				}
				return
			}
			if stored != q || ecs != 1 {
				t.Fatalf("basic stored %d signatures and relayed %d ECs, want %d and 1", stored, ecs, q)
			}
			want, err := keys.Aggregate(stmt, sigs[:q])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ec.Agg, want) {
				t.Fatalf("EC = %v, want the aggregate of the first %d arrivals %v", ec.Agg.Signers, q, want.Signers)
			}
		})
	}
}

// TestStaleMessagesIgnored: certificates for views far below the current
// position have no effect.
func TestStaleMessagesIgnored(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(2, u.QC(10))
	view := u.pm.CurrentView()
	lc := u.Clk.Read()
	u.pm.Handle(2, u.vcFor(2))
	u.pm.Handle(2, u.QC(3))
	if u.pm.CurrentView() != view || u.Clk.Read() != lc {
		t.Fatal("stale certificate moved the pacemaker")
	}
	u.requireClean(t)
}

// TestDeadlineIsInfiniteForBasic: the basic variant imposes no QC
// deadline.
func TestDeadlineIsInfiniteForBasic(t *testing.T) {
	u := newUnit(t, 0, func(c *Config) { c.Variant = VariantBasic })
	u.pm.Start()
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	u.pm.Handle(1, u.viewMsgFrom(1, 0))
	u.pm.Handle(2, u.viewMsgFrom(2, 0))
	if len(u.Drv.Started) == 0 {
		t.Fatal("leader never started")
	}
	if u.Drv.Deadlines[len(u.Drv.Deadlines)-1] != types.TimeInf {
		t.Fatalf("basic deadline = %v, want ∞", u.Drv.Deadlines[len(u.Drv.Deadlines)-1])
	}
}
