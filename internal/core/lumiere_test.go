package core

import (
	"testing"
	"time"

	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// fakeEP records everything a pacemaker sends.
type fakeEP struct {
	id     types.NodeID
	sends  []sentMsg
	bcasts []msg.Message
}

type sentMsg struct {
	to types.NodeID
	m  msg.Message
}

func (f *fakeEP) ID() types.NodeID { return f.id }
func (f *fakeEP) Send(to types.NodeID, m msg.Message) {
	f.sends = append(f.sends, sentMsg{to: to, m: m})
}
func (f *fakeEP) Broadcast(m msg.Message) { f.bcasts = append(f.bcasts, m) }

func (f *fakeEP) broadcastsOf(k msg.Kind) []msg.Message {
	var out []msg.Message
	for _, m := range f.bcasts {
		if m.Kind() == k {
			out = append(out, m)
		}
	}
	return out
}

func (f *fakeEP) sendsOf(k msg.Kind) []sentMsg {
	var out []sentMsg
	for _, s := range f.sends {
		if s.m.Kind() == k {
			out = append(out, s)
		}
	}
	return out
}

var _ network.Endpoint = (*fakeEP)(nil)

// recDriver records driver notifications.
type recDriver struct {
	entered []types.View
	started []types.View
	dls     []types.Time
}

func (r *recDriver) EnterView(v types.View) { r.entered = append(r.entered, v) }
func (r *recDriver) LeaderStart(v types.View, dl types.Time) {
	r.started = append(r.started, v)
	r.dls = append(r.dls, dl)
}

var _ pacemaker.Driver = (*recDriver)(nil)

// unit is a single Lumiere pacemaker with everything observable.
type unit struct {
	sched  *sim.Scheduler
	suite  *crypto.SimSuite
	ep     *fakeEP
	clk    *clock.Clock
	drv    *recDriver
	pm     *Pacemaker
	cfg    Config
	f, n   int
	quorum int
}

// newUnit builds a pacemaker for node id with f = 1 (n = 4), Δ = 100ms,
// round-robin leaders for predictability.
func newUnit(t *testing.T, id types.NodeID, mutate func(*Config)) *unit {
	t.Helper()
	u := &unit{sched: sim.New(1), f: 1, n: 4}
	u.quorum = 3
	u.suite = crypto.NewSimSuite(u.n, 5)
	u.ep = &fakeEP{id: id}
	u.clk = clock.New(u.sched, 0)
	u.drv = &recDriver{}
	u.cfg = DefaultConfig(types.NewConfig(u.f, 100*time.Millisecond))
	u.cfg.RoundRobin = true
	u.cfg.CheckInvariants = true
	if mutate != nil {
		mutate(&u.cfg)
	}
	u.pm = New(u.cfg, u.ep, u.sched, u.clk, u.suite, u.drv, nil, nil)
	return u
}

func (u *unit) requireClean(t *testing.T) {
	t.Helper()
	for _, v := range u.pm.Violations() {
		t.Errorf("violation: %s", v)
	}
}

// viewMsgFrom builds a signed view-v message.
func (u *unit) viewMsgFrom(from types.NodeID, v types.View) *msg.ViewMsg {
	return &msg.ViewMsg{V: v, Sig: u.suite.SignerFor(from).Sign(msg.ViewStatement(v))}
}

// epochViewFrom builds a signed epoch-view-v message.
func (u *unit) epochViewFrom(from types.NodeID, v types.View) *msg.EpochViewMsg {
	return &msg.EpochViewMsg{V: v, Sig: u.suite.SignerFor(from).Sign(msg.EpochViewStatement(v))}
}

// qcFor builds a valid QC for view v.
func (u *unit) qcFor(v types.View) *msg.QC {
	var h [32]byte
	var sigs []crypto.Signature
	for i := 0; i < u.quorum; i++ {
		sigs = append(sigs, u.suite.SignerFor(types.NodeID(i)).Sign(msg.VoteStatement(v, h)))
	}
	agg, err := u.suite.Aggregate(msg.VoteStatement(v, h), sigs)
	if err != nil {
		panic(err)
	}
	return &msg.QC{V: v, BlockHash: h, Agg: agg}
}

// vcFor builds a valid VC for view v.
func (u *unit) vcFor(v types.View) *msg.VC {
	var sigs []crypto.Signature
	for i := 0; i < u.f+1; i++ {
		sigs = append(sigs, u.suite.SignerFor(types.NodeID(i)).Sign(msg.ViewStatement(v)))
	}
	agg, err := u.suite.Aggregate(msg.ViewStatement(v), sigs)
	if err != nil {
		panic(err)
	}
	return &msg.VC{V: v, Agg: agg}
}

// ecFor builds an EC (2f+1 epoch-view messages) for epoch view v.
func (u *unit) ecFor(v types.View) *msg.EC {
	var sigs []crypto.Signature
	for i := 0; i < u.quorum; i++ {
		sigs = append(sigs, u.suite.SignerFor(types.NodeID(i)).Sign(msg.EpochViewStatement(v)))
	}
	agg, err := u.suite.Aggregate(msg.EpochViewStatement(v), sigs)
	if err != nil {
		panic(err)
	}
	return &msg.EC{V: v, Agg: agg}
}

// tcFor builds a TC (f+1 epoch-view messages) for epoch view v.
func (u *unit) tcFor(v types.View) *msg.TC {
	var sigs []crypto.Signature
	for i := 0; i < u.f+1; i++ {
		sigs = append(sigs, u.suite.SignerFor(types.NodeID(i)).Sign(msg.EpochViewStatement(v)))
	}
	agg, err := u.suite.Aggregate(msg.EpochViewStatement(v), sigs)
	if err != nil {
		panic(err)
	}
	return &msg.TC{V: v, Agg: agg}
}

// TestBootstrapPausesAndSendsEpochView: at start lc = 0 = c_0 with
// success(-1) = 0 (lines 9-11): pause, wait Δ, broadcast epoch-view-0.
func TestBootstrapPausesAndSendsEpochView(t *testing.T) {
	u := newUnit(t, 0, nil)
	u.pm.Start()
	if !u.pm.Paused() {
		t.Fatal("not paused at boot boundary")
	}
	if len(u.ep.broadcastsOf(msg.KindEpochView)) != 0 {
		t.Fatal("epoch-view sent before the Δ-wait")
	}
	u.sched.RunFor(100 * time.Millisecond)
	if got := u.ep.broadcastsOf(msg.KindEpochView); len(got) != 1 || got[0].View() != 0 {
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
	if got := u.ep.broadcastsOf(msg.KindEpochView); len(got) != 1 {
		t.Fatalf("epoch-view sends = %d, want immediate", len(got))
	}
}

// TestECEntersEpochAndSendsViewMsg: an EC for view 0 unpauses, enters
// epoch 0 / view 0, and (line 28) sends a view-0 message to lead(0).
func TestECEntersEpochAndSendsViewMsg(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	if u.pm.Paused() {
		t.Fatal("still paused after EC")
	}
	if u.pm.CurrentView() != 0 || u.pm.CurrentEpoch() != 0 {
		t.Fatalf("position = (%v, %v)", u.pm.CurrentView(), u.pm.CurrentEpoch())
	}
	vm := u.ep.sendsOf(msg.KindView)
	if len(vm) != 1 || vm[0].to != 0 || vm[0].m.View() != 0 {
		t.Fatalf("view msgs = %+v, want view-0 to p0", vm)
	}
	if len(u.drv.entered) == 0 || u.drv.entered[len(u.drv.entered)-1] != 0 {
		t.Fatalf("driver entered = %v", u.drv.entered)
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
	if got := u.ep.broadcastsOf(msg.KindEpochView); len(got) != 1 {
		t.Fatalf("epoch-view relays = %d, want 1", len(got))
	}
}

// TestTCBumpsAndPauses: a TC for a future epoch view (lines 16-21) bumps
// the clock to c_v, moves to view v-1, sends the epoch-view message, and
// the landing triggers the pause (success = 0).
func TestTCBumpsAndPauses(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))   // enter epoch 0 first
	boundary := u.cfg.EpochLen() // V(1)
	u.pm.Handle(2, u.tcFor(boundary))
	if u.pm.LocalClock() != types.Time(boundary)*types.Time(u.pm.Gamma()) {
		t.Fatalf("lc = %v, want c_%d", u.pm.LocalClock(), boundary)
	}
	if u.pm.CurrentView() != boundary-1 {
		t.Fatalf("view = %v, want %d (line 20)", u.pm.CurrentView(), boundary-1)
	}
	if !u.pm.Paused() {
		t.Fatal("not paused at the TC'd boundary")
	}
	found := false
	for _, m := range u.ep.broadcastsOf(msg.KindEpochView) {
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
	u.pm.Handle(2, u.qcFor(0))
	if u.pm.CurrentView() != 1 {
		t.Fatalf("view = %v, want 1", u.pm.CurrentView())
	}
	if u.pm.LocalClock() != types.Time(u.pm.Gamma()) {
		t.Fatalf("lc = %v, want c_1", u.pm.LocalClock())
	}
	// QC for view 1 enters initial view 2 and (line 28 at the bump
	// landing) sends a view-2 message.
	u.pm.Handle(2, u.qcFor(1))
	if u.pm.CurrentView() != 2 {
		t.Fatalf("view = %v, want 2", u.pm.CurrentView())
	}
	vm := u.ep.sendsOf(msg.KindView)
	last := vm[len(vm)-1]
	if last.m.View() != 2 || last.to != 1 {
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
	last := u.cfg.EpochLen() - 1 // non-initial view before V(1)
	u.pm.Handle(2, u.qcFor(last))
	if u.pm.CurrentView() != last {
		t.Fatalf("view = %v, want %v (line 49)", u.pm.CurrentView(), last)
	}
	if !u.pm.Paused() {
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
	target := u.cfg.EpochLen() + 4 // initial, inside epoch 1
	u.pm.Handle(2, u.vcFor(target))
	if u.pm.CurrentView() != target || u.pm.CurrentEpoch() != 1 {
		t.Fatalf("position = (%v, %v), want (%v, 1)", u.pm.CurrentView(), u.pm.CurrentEpoch(), target)
	}
	u.requireClean(t)
}

// TestPendingViewMsgsOnSkip: line 46 — a QC far ahead triggers view
// messages for every skipped initial view.
func TestPendingViewMsgsOnSkip(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(2, u.qcFor(8)) // skip views 1..8
	views := make(map[types.View]bool)
	for _, s := range u.ep.sendsOf(msg.KindView) {
		views[s.m.View()] = true
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
		u.pm.Handle(2, u.qcFor(v))
	}
	if u.pm.SuccessOf(0) {
		t.Fatal("success flipped below threshold")
	}
	u.pm.Handle(2, u.qcFor(5)) // completes p2: now 3 = 2f+1 leaders
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
		u.pm.Handle(2, u.qcFor(v))
	}
	if !u.pm.SuccessOf(0) {
		t.Fatal("success not satisfied")
	}
	// The QC for view 7 bumped lc to c_8 = c_{V(1)}: the boundary
	// trigger must have entered epoch 1 directly.
	if u.pm.CurrentEpoch() != 1 || u.pm.CurrentView() != 8 {
		t.Fatalf("position = (%v, %v), want (8, 1)", u.pm.CurrentView(), u.pm.CurrentEpoch())
	}
	if u.pm.Paused() {
		t.Fatal("paused despite success criterion")
	}
	for _, m := range u.ep.broadcastsOf(msg.KindEpochView) {
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
	u.pm.Handle(2, u.qcFor(7))
	if !u.pm.Paused() || u.pm.CurrentView() != 7 {
		t.Fatalf("not paused at boundary: view=%v paused=%v", u.pm.CurrentView(), u.pm.Paused())
	}
	// Late QCs for the earlier views flip success(0).
	for v := types.View(0); v < 7; v++ {
		u.pm.Handle(2, u.qcFor(v))
	}
	if !u.pm.SuccessOf(0) {
		t.Fatal("success not satisfied")
	}
	if u.pm.Paused() || u.pm.CurrentView() != 8 || u.pm.CurrentEpoch() != 1 {
		t.Fatalf("did not enter epoch on success flip: view=%v epoch=%v paused=%v",
			u.pm.CurrentView(), u.pm.CurrentEpoch(), u.pm.Paused())
	}
	u.requireClean(t)
}

// TestTCForPauseViewDoesNotUnpause: line 10 — only a TC for a view
// *greater* than the pause view unpauses.
func TestTCForPauseViewDoesNotUnpause(t *testing.T) {
	u := newUnit(t, 1, func(c *Config) { c.BlocksPerEpoch = 1 })
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(2, u.qcFor(7)) // paused at V(1) = 8
	u.pm.Handle(2, u.tcFor(8))
	if !u.pm.Paused() {
		t.Fatal("TC for the pause view unpaused")
	}
	// But it must have triggered the epoch-view send (line 21).
	found := false
	for _, m := range u.ep.broadcastsOf(msg.KindEpochView) {
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
	u.pm.Handle(2, u.qcFor(7)) // paused at 8
	u.pm.Handle(2, u.qcFor(8)) // QC for the pause view
	if u.pm.Paused() {
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
	if len(u.ep.broadcastsOf(msg.KindVC)) != 0 {
		t.Fatal("VC formed below f+1")
	}
	u.pm.Handle(2, u.viewMsgFrom(2, 0))
	// p0's own view-0 message went through the endpoint (not self-
	// delivered by the fake); two remote ones reach f+1 = 2.
	vcs := u.ep.broadcastsOf(msg.KindVC)
	if len(vcs) != 1 || vcs[0].View() != 0 {
		t.Fatalf("VCs = %v", vcs)
	}
	if len(u.drv.started) != 1 || u.drv.started[0] != 0 {
		t.Fatalf("driver started = %v", u.drv.started)
	}
	wantDL := u.sched.Now().Add(u.cfg.QCWindow())
	if u.drv.dls[0] != wantDL {
		t.Fatalf("deadline = %v, want %v (VC send + Γ/2−2Δ)", u.drv.dls[0], wantDL)
	}
	u.requireClean(t)
}

// TestNonInitialLeaderStartAnchoredAtQC: the leader of the odd view of
// its pair starts it upon its own QC with a fresh deadline.
func TestNonInitialLeaderStartAnchoredAtQC(t *testing.T) {
	u := newUnit(t, 0, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.sched.RunFor(70 * time.Millisecond)
	u.pm.Handle(0, u.qcFor(0)) // p0's own QC for view 0
	if len(u.drv.started) == 0 || u.drv.started[len(u.drv.started)-1] != 1 {
		t.Fatalf("driver started = %v, want view 1", u.drv.started)
	}
	wantDL := u.sched.Now().Add(u.cfg.QCWindow())
	if u.drv.dls[len(u.drv.dls)-1] != wantDL {
		t.Fatalf("deadline = %v, want %v", u.drv.dls[len(u.drv.dls)-1], wantDL)
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
	if len(u2.ep.broadcastsOf(msg.KindVC)) != 0 {
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
	if u.pm.CurrentEpoch() != types.NoEpoch || u.pm.LocalClock() != 0 {
		t.Fatal("single epoch-view message had effect")
	}
	u.pm.Handle(1, u.epochViewFrom(1, 0))
	// f+1 = 2 distinct: TC processed — and at boot lc is already c_0,
	// so no bump, but the epoch-view relay (line 21) fires.
	if len(u.ep.broadcastsOf(msg.KindEpochView)) != 1 {
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
	if len(u.ep.broadcastsOf(msg.KindEpochView)) != 1 {
		t.Fatal("basic variant must send epoch-view immediately (no Δ-wait)")
	}
	for i := 0; i < 3; i++ {
		u.pm.Handle(types.NodeID(i), u.epochViewFrom(types.NodeID(i), 0))
	}
	if len(u.ep.broadcastsOf(msg.KindEC)) != 1 {
		t.Fatal("basic variant did not broadcast the EC")
	}
	if u.pm.CurrentEpoch() != 0 {
		t.Fatal("did not enter epoch")
	}
	u.requireClean(t)
}

// TestStaleMessagesIgnored: certificates for views far below the current
// position have no effect.
func TestStaleMessagesIgnored(t *testing.T) {
	u := newUnit(t, 1, nil)
	u.pm.Start()
	u.pm.Handle(2, u.ecFor(0))
	u.pm.Handle(2, u.qcFor(10))
	view := u.pm.CurrentView()
	lc := u.pm.LocalClock()
	u.pm.Handle(2, u.vcFor(2))
	u.pm.Handle(2, u.qcFor(3))
	if u.pm.CurrentView() != view || u.pm.LocalClock() != lc {
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
	if len(u.drv.started) == 0 {
		t.Fatal("leader never started")
	}
	if u.drv.dls[len(u.drv.dls)-1] != types.TimeInf {
		t.Fatalf("basic deadline = %v, want ∞", u.drv.dls[len(u.drv.dls)-1])
	}
}
