package core

import (
	"fmt"
	"time"

	"lumiere/internal/baseline"
	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/quorum"
	"lumiere/internal/trace"
	"lumiere/internal/types"
)

// Pacemaker is one processor's Lumiere instance (Algorithm 1): the
// wiring, current view and certificate bookkeeping of the skeleton its
// baselines share (baseline.Node: Cfg is cfg.Base, and Node.Certs
// collects view messages into VCs, lines 32-34), plus what the paper
// adds. It is not internally synchronized: the owning runtime serializes
// all entry points (message deliveries, clock alarms, timer callbacks).
type Pacemaker struct {
	baseline.Node

	cfg      Config
	clk      *clock.Clock
	ticker   *clock.Ticker
	schedule Schedule
	gamma    time.Duration
	qcWindow time.Duration // <0 means no deadline

	epoch types.Epoch // epoch(p), Algorithm 1 line 4; view(p), line 3, is Node's
	// pausedAt is the epoch view at whose boundary the clock is paused
	// (lines 9-11); NoView when running.
	pausedAt types.View

	// Send dedupe ("if not already sent").
	sentView      quorum.Flags
	sentEpochView quorum.Flags
	// vcSentAt anchors the §4 QC deadline of each VC this leader sent.
	vcSentAt quorum.Window[types.View, types.Time]

	// EpochCerts counts broadcast epoch-view messages toward TCs (f+1)
	// and ECs (2f+1) until the epoch view's EC has been acted on; it
	// stores ecKeep signatures per epoch view: the 2f+1 Basic seals into
	// the EC it relays, none for the full variant, which relays neither
	// certificate. tcDone and ecDone are the epoch views whose TC / EC has
	// been acted on, however it arrived.
	EpochCerts baseline.Certs
	ecKeep     int
	tcDone     quorum.Flags
	ecDone     quorum.Flags

	// The success criterion (§4): per epoch, the QCs credited to each
	// leader (indexed by NodeID, saturating at QCsPerLeaderForSuccess)
	// and how many leaders have reached that count; success(e) holds
	// once that count reaches 2f+1.
	credited  quorum.Flags
	leaderQCs quorum.Window[types.Epoch, epochQCs]

	violations []string
	lastLC     types.Time
	// inBump counts bumpTo nesting: boundary triggers fired from an
	// explicit clock bump run mid-step (the bump and the view entry that
	// follows it are one atomic line of the pseudocode), so the invariant
	// checker skips the transient and validates the post-step state from
	// the enclosing handler instead.
	inBump int
}

// epochQCs is one epoch's success tally: one byte per processor and the
// number of leaders whose byte reached the threshold.
type epochQCs struct {
	per []uint8
	met int
}

var _ pacemaker.Pacemaker = (*Pacemaker)(nil)

// New creates a Lumiere pacemaker. clk must have been created on rt;
// driver receives view-entry and leader-start notifications; obs and tr
// may be nil.
func New(cfg Config, ep network.Endpoint, rt clock.Runtime, clk *clock.Clock,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *Pacemaker {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid config: %v", err))
	}
	sched := cfg.Schedule
	if sched == nil {
		sched = NewPermSchedule(cfg.Base.N, cfg.ScheduleSeed)
	}
	ecKeep := 0
	if cfg.Variant == VariantBasic {
		ecKeep = cfg.Base.Quorum()
	}
	return &Pacemaker{
		Node:       baseline.NewNode(cfg.Base, ep, rt, suite, driver, obs, tr),
		cfg:        cfg,
		clk:        clk,
		schedule:   sched,
		gamma:      cfg.Gamma(),
		qcWindow:   cfg.QCWindow(),
		epoch:      types.NoEpoch,
		pausedAt:   types.NoView,
		EpochCerts: baseline.NewCerts(suite, cfg.Base.N),
		ecKeep:     ecKeep,
	}
}

// Start boots the protocol: processors join with lc(p) = 0 and the
// epoch-view-0 trigger fires (success(-1) = 0, so the execution begins
// with a heavy synchronization into epoch 0).
func (p *Pacemaker) Start() {
	p.ticker = clock.NewTicker(p.clk, p.gamma, p.onBoundary)
	p.ticker.StartInclusive()
	p.checkInvariants(checkpoint{step: "start"})
}

// CurrentEpoch implements pacemaker.Pacemaker.
func (p *Pacemaker) CurrentEpoch() types.Epoch { return p.epoch }

// Leader implements pacemaker.Pacemaker with the §4 schedule.
func (p *Pacemaker) Leader(v types.View) types.NodeID { return p.schedule.Leader(v) }

// SuccessOf reports success(e) (§4), with success(-1) = 0 (line 5):
// 2f+1 distinct leaders have each produced QCsPerLeaderForSuccess QCs
// for views in epoch e. Basic Lumiere credits no QCs, so it is always
// false there.
func (p *Pacemaker) SuccessOf(e types.Epoch) bool {
	tally, _ := p.leaderQCs.At(e)
	return tally.met >= p.Cfg.Quorum()
}

// Violations returns recorded invariant violations (empty in correct
// executions; populated only with Config.CheckInvariants).
func (p *Pacemaker) Violations() []string { return p.violations }

// Handle implements pacemaker.Pacemaker.
func (p *Pacemaker) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.ViewMsg:
		p.onViewMsg(from, mm)
	case *msg.VC:
		p.onVC(mm)
	case *msg.EpochViewMsg:
		p.onEpochViewMsg(from, mm)
	case *msg.TC:
		p.onTCMessage(mm)
	case *msg.EC:
		p.onECMessage(mm)
	case *msg.QC:
		p.onQC(mm)
	}
	if p.cfg.CheckInvariants {
		p.checkInvariants(checkpoint{step: "handle", kind: m.Kind()})
	}
}

// ---------------------------------------------------------------------------
// Clock boundary triggers ("Upon lc(p) == c_v ...")
// ---------------------------------------------------------------------------

func (p *Pacemaker) onBoundary(w types.View) {
	switch {
	case p.cfg.IsEpochView(w):
		p.onEpochBoundary(w)
	case w.Initial():
		p.onInitialBoundary(w)
	}
	if p.cfg.CheckInvariants {
		p.checkInvariants(checkpoint{step: "boundary", view: w})
	}
}

// onEpochBoundary implements lines 9-14: the clock attained c_w for an
// epoch view w.
func (p *Pacemaker) onEpochBoundary(w types.View) {
	// The Ticker fires each boundary once, and a boundary at or below the
	// current view has been passed by a certificate.
	if w <= p.CurrentView() {
		return
	}
	if p.SuccessOf(p.cfg.EpochOf(w) - 1) {
		// Lines 13-14: enter the epoch treating w as a standard
		// initial view.
		p.enterInitial(w)
		return
	}
	// Lines 9-11: pause; after Δ, if still paused, start the heavy
	// synchronization.
	p.clk.Pause()
	p.pausedAt = w
	p.Tr.Emit(p.RT.Now(), p.ID, trace.PauseClock, w, "epoch boundary, success=0")
	if p.cfg.Variant == VariantBasic || p.cfg.DisableDeltaWait {
		p.sendEpochViewMsg(w)
		return
	}
	p.RT.After(p.Cfg.Delta, func() {
		if p.clk.Paused() && p.pausedAt == w {
			p.sendEpochViewMsg(w)
		}
		p.checkInvariants(checkpoint{step: "delta-wait"})
	})
}

// onInitialBoundary implements lines 28-30: the clock attained c_w for an
// initial non-epoch view w.
func (p *Pacemaker) onInitialBoundary(w types.View) {
	if p.epoch != p.cfg.EpochOf(w) || w < p.CurrentView() {
		return
	}
	if w > p.CurrentView() {
		p.enter(w)
	}
	p.sendViewMsg(w)
	p.maybeLeaderStartInitial(w)
}

// enterInitial enters epoch view w as a standard initial view (lines
// 13-14 followed by the line-28 trigger, whose condition lc == c_w ∧
// epoch(p) == E(w) becomes true at this instant).
func (p *Pacemaker) enterInitial(w types.View) {
	p.unpauseIfAt(w)
	p.enter(w)
	p.sendViewMsg(w)
	p.maybeLeaderStartInitial(w)
}

// ---------------------------------------------------------------------------
// View messages and VCs (lines 28-40)
// ---------------------------------------------------------------------------

// onViewMsg implements the leader side (lines 32-34).
func (p *Pacemaker) onViewMsg(from types.NodeID, vm *msg.ViewMsg) {
	w := vm.V
	if !w.Initial() || p.Leader(w) != p.ID || w < p.CurrentView() {
		return
	}
	vc, ok := p.Certs.Collect(from, w, vm.Sig, p.Stmt.View(w), p.Cfg.Majority())
	if !ok {
		return
	}
	p.vcSentAt.Put(w, p.RT.Now())
	p.Tr.Emit(p.RT.Now(), p.ID, trace.FormVC, w, "")
	p.EP.Broadcast(&msg.VC{V: w, Agg: vc})
	// If the leader is already in view w, start driving it now; if not,
	// the self-delivered VC (same instant) enters the view first.
	p.maybeLeaderStartInitial(w)
}

// onVC implements lines 36-40.
func (p *Pacemaker) onVC(vc *msg.VC) {
	w := vc.V
	// "First seeing": a VC acted on leaves view(p) ≥ w.
	if !w.Initial() || w <= p.CurrentView() {
		return
	}
	if p.Suite.VerifyAggregate(p.Stmt.View(w), vc.Agg, p.Cfg.Majority()) != nil {
		return
	}
	// Line 10: a VC for a view ≥ the pause view unpauses.
	if p.pausedAt != types.NoView && w >= p.pausedAt {
		p.unpause("vc")
	}
	if p.clk.Read() < p.clockTime(w) {
		p.sendPendingViewMsgs(w) // line 38
	}
	p.enter(w)  // line 40
	p.bumpTo(w) // line 39 (fires the line-28 trigger on landing)
	p.sendViewMsg(w)
	p.maybeLeaderStartInitial(w)
}

// ---------------------------------------------------------------------------
// Epoch-view messages, TCs and ECs (lines 9-24, §3.5)
// ---------------------------------------------------------------------------

// onEpochViewMsg assembles TCs (f+1) and ECs (2f+1) from broadcast
// epoch-view messages. The thresholds coincide at f = 0. Once w's EC has
// been acted on — its TC with it — a further message can change nothing,
// so it is dropped unverified.
func (p *Pacemaker) onEpochViewMsg(from types.NodeID, em *msg.EpochViewMsg) {
	w := em.V
	if !p.cfg.IsEpochView(w) || p.cfg.EpochOf(w) <= p.epoch-1 || p.ecDone.Has(w) {
		return
	}
	k := p.EpochCerts.Add(from, w, em.Sig, p.Stmt.EpochView(w), p.ecKeep)
	if k == p.Cfg.Majority() && p.cfg.Variant == VariantFull {
		p.onTC(w) // once: a TC seen earlier is onTC's to drop
	}
	if k == p.Cfg.Quorum() {
		if p.cfg.Variant == VariantBasic {
			// §3.4 / LP22: broadcast the combined EC. The full variant
			// relays none, so it aggregates none.
			if ec, ok := p.EpochCerts.Seal(w, p.Stmt.EpochView(w)); ok {
				p.EP.Broadcast(&msg.EC{V: w, Agg: ec})
			}
		}
		p.onEC(w)
	}
}

// onTCMessage verifies a relayed compact TC.
func (p *Pacemaker) onTCMessage(tc *msg.TC) {
	w := tc.V
	if p.cfg.Variant != VariantFull || !p.cfg.IsEpochView(w) || p.tcDone.Has(w) {
		return
	}
	if p.Suite.VerifyAggregate(p.Stmt.EpochView(w), tc.Agg, p.Cfg.Majority()) != nil {
		return
	}
	p.onTC(w)
}

// onECMessage verifies a relayed compact EC. Views below the pruning
// bound stay forgotten: an EC for an epoch that far behind cannot move
// this processor, so it is treated as already seen.
func (p *Pacemaker) onECMessage(ec *msg.EC) {
	w := ec.V
	if !p.cfg.IsEpochView(w) || w < p.ecDone.Bound() || p.ecDone.Has(w) {
		return
	}
	if p.Suite.VerifyAggregate(p.Stmt.EpochView(w), ec.Agg, p.Cfg.Quorum()) != nil {
		return
	}
	if p.cfg.Variant == VariantFull && !p.tcDone.Has(w) {
		p.onTC(w)
	}
	p.onEC(w)
}

// onTC implements lines 16-21 ("Upon first seeing a TC for epoch view v
// with E(v) ≥ epoch(p)").
func (p *Pacemaker) onTC(w types.View) {
	if p.tcDone.Has(w) || p.cfg.EpochOf(w) < p.epoch {
		return
	}
	p.tcDone.Set(w)
	p.Tr.Emit(p.RT.Now(), p.ID, trace.SeeTC, w, "")
	// Line 10: a TC for a view strictly greater than the pause view
	// unpauses.
	if p.pausedAt != types.NoView && w > p.pausedAt {
		p.unpause("tc")
	}
	below := p.clk.Read() < p.clockTime(w)
	if below {
		p.sendPendingViewMsgs(w) // line 18
	}
	if p.CurrentView() < w-1 { // line 20
		p.enter(w - 1)
	}
	p.sendEpochViewMsg(w) // line 21
	if below {
		p.bumpTo(w) // line 19; landing fires the epoch-boundary trigger
	}
}

// onEC implements lines 23-24 ("Upon first seeing an EC for epoch view v
// with E(v) > epoch(p)"). Seeing an EC implies seeing a TC, which the
// callers have already processed.
func (p *Pacemaker) onEC(w types.View) {
	if w < p.ecDone.Bound() || p.ecDone.Has(w) {
		return
	}
	p.ecDone.Set(w)
	p.Tr.Emit(p.RT.Now(), p.ID, trace.SeeEC, w, "")
	if p.cfg.EpochOf(w) <= p.epoch {
		return
	}
	// Line 10: an EC for a view ≥ the pause view unpauses; entering the
	// epoch unpauses unconditionally (§3.4).
	if p.pausedAt != types.NoView && w >= p.pausedAt {
		p.unpause("ec")
	}
	p.bumpTo(w)
	p.enterInitial(w) // line 24 + the line-28 trigger
}

// ---------------------------------------------------------------------------
// QCs (lines 44-49) and the success criterion (§4)
// ---------------------------------------------------------------------------

// onQC implements lines 44-49 plus success-criterion accounting. The QC
// was verified by this node's engine (the pacemaker.Driver contract).
func (p *Pacemaker) onQC(qc *msg.QC) {
	v := qc.V
	p.creditQC(v)
	// "First seeing": a QC acted on leaves view(p) > v, or — line 49 —
	// view(p) = v with lc ≥ c_{v+1}, where acting again changes nothing.
	if v < p.CurrentView() {
		return
	}
	p.Tr.Emit(p.RT.Now(), p.ID, trace.QCSeen, v, "")
	// Line 10: a QC for a view ≥ the pause view unpauses.
	if p.pausedAt != types.NoView && v >= p.pausedAt {
		p.unpause("qc")
	}
	below := p.clk.Read() < p.clockTime(v+1)
	if below {
		p.sendPendingViewMsgs(v) // line 46
	}
	next := v + 1
	if !p.cfg.IsEpochView(next) { // line 48
		p.enter(next)
		if !next.Initial() && p.Leader(next) == p.ID {
			// The leader of the pair (v, v+1) just produced the
			// QC for v; the deadline is anchored at its send
			// time, which is this instant.
			p.Driver.LeaderStart(next, p.deadlineFrom(p.RT.Now()))
		}
	} else if p.CurrentView() < v { // line 49
		p.enter(v)
	}
	if below {
		p.bumpTo(next) // line 47; landing fires boundary triggers
	}
}

// creditQC updates the success criterion: success(e) flips once 2f+1
// distinct leaders have each produced QCsPerLeaderForSuccess QCs for
// views in epoch e. Each QC costs O(1); an epoch's tally is made at its
// first credited QC, which may come before the processor enters it.
func (p *Pacemaker) creditQC(v types.View) {
	if p.cfg.Variant != VariantFull || v < 0 || p.credited.Has(v) {
		return
	}
	e := p.cfg.EpochOf(v)
	tally, ok := p.leaderQCs.At(e)
	if e < p.epoch-1 || tally.met >= p.Cfg.Quorum() {
		return
	}
	p.credited.Set(v)
	if !ok {
		tally.per = make([]uint8, p.Cfg.N)
		p.leaderQCs.Put(e, tally)
	}
	c := &tally.per[p.Leader(v)]
	if int(*c) >= p.cfg.QCsPerLeaderForSuccess {
		return // saturated: this leader already counts toward met
	}
	*c++
	if int(*c) < p.cfg.QCsPerLeaderForSuccess {
		return
	}
	tally.met++
	p.leaderQCs.Put(e, tally)
	if tally.met < p.Cfg.Quorum() {
		return
	}
	if p.Tr != nil {
		p.Tr.Emit(p.RT.Now(), p.ID, trace.Success, p.cfg.FirstView(e), fmt.Sprintf("success(%d)=1", e))
	}
	// Line 10 / line 13: if paused at c_{V(e+1)}, the success flip ends
	// the pause and the processor enters the epoch as an initial view.
	if p.pausedAt == p.cfg.FirstView(e+1) {
		p.enterInitial(p.pausedAt)
	}
}

// ---------------------------------------------------------------------------
// Shared transitions
// ---------------------------------------------------------------------------

func (p *Pacemaker) clockTime(v types.View) types.Time {
	return types.Time(v) * types.Time(p.gamma)
}

// bumpTo advances the clock to c_w and lets the ticker fire the trigger if
// the bump lands exactly on a boundary.
func (p *Pacemaker) bumpTo(w types.View) {
	target := p.clockTime(w)
	if p.clk.BumpTo(target) {
		p.Tr.Emit(p.RT.Now(), p.ID, trace.Bump, w, "")
		p.inBump++
		p.ticker.Jumped(target)
		p.inBump--
	}
}

// enter moves to view v > view(p), and to its epoch, maintaining Lemmas
// 5.1-5.2, and discards the state the new position retires, bounding
// memory over unbounded executions.
func (p *Pacemaker) enter(v types.View) {
	e := p.cfg.EpochOf(v)
	if v < p.CurrentView() || e < p.epoch {
		p.violate(fmt.Sprintf("position would regress: (%v,%v) -> (%v,%v)", p.CurrentView(), p.epoch, v, e))
		return
	}
	if e > p.epoch {
		p.epoch = e
		if p.Tr != nil {
			p.Tr.Emit(p.RT.Now(), p.ID, trace.EnterEpoch, p.cfg.FirstView(e), fmt.Sprintf("epoch %v", e))
		}
		p.Obs.OnEnterEpoch(e, p.RT.Now())
		low := p.cfg.FirstView(e - 1)
		p.EpochCerts.Forget(low)
		p.sentEpochView.ForgetBelow(low)
		p.tcDone.ForgetBelow(low)
		p.ecDone.ForgetBelow(low)
		p.credited.ForgetBelow(low)
		p.leaderQCs.ForgetBelow(e-1, nil)
	}
	p.Certs.Forget(v - 2)
	p.sentView.ForgetBelow(v - 2)
	p.vcSentAt.ForgetBelow(v-2, nil)
	p.Advance(v, false)
}

func (p *Pacemaker) unpause(reason string) {
	if !p.clk.Paused() {
		p.pausedAt = types.NoView
		return
	}
	p.clk.Unpause()
	p.pausedAt = types.NoView
	p.ticker.Rearm()
	p.Tr.Emit(p.RT.Now(), p.ID, trace.Unpause, p.CurrentView(), reason)
}

func (p *Pacemaker) unpauseIfAt(w types.View) {
	if p.pausedAt == w {
		p.unpause("enter")
	}
}

// sendViewMsg sends a view-w message to lead(w) (line 30), deduped.
func (p *Pacemaker) sendViewMsg(w types.View) {
	if p.sentView.Has(w) || !w.Initial() {
		return
	}
	p.sentView.Set(w)
	sig := p.Signer.Sign(p.Stmt.View(w))
	p.Tr.Emit(p.RT.Now(), p.ID, trace.SendView, w, "")
	p.EP.Send(p.Leader(w), &msg.ViewMsg{V: w, Sig: sig})
}

// sendPendingViewMsgs implements lines 18/38/46: view messages for every
// initial view in [view(p), w) not already sent.
func (p *Pacemaker) sendPendingViewMsgs(w types.View) {
	start := p.CurrentView()
	if start < 0 {
		start = 0
	}
	if !start.Initial() {
		start++
	}
	for v := start; v < w; v += 2 {
		p.sendViewMsg(v)
	}
}

// sendEpochViewMsg broadcasts an epoch-view-w message (heavy sync), deduped.
func (p *Pacemaker) sendEpochViewMsg(w types.View) {
	if p.sentEpochView.Has(w) {
		return
	}
	p.sentEpochView.Set(w)
	sig := p.Signer.Sign(p.Stmt.EpochView(w))
	p.Tr.Emit(p.RT.Now(), p.ID, trace.SendEpoch, w, "")
	p.Obs.OnHeavySync(w, p.RT.Now())
	p.EP.Broadcast(&msg.EpochViewMsg{V: w, Sig: sig})
}

// maybeLeaderStartInitial starts driving an initial view once the leader
// is in it and has sent the VC; the QC deadline is anchored at the VC send
// time (§4).
func (p *Pacemaker) maybeLeaderStartInitial(w types.View) {
	if p.Leader(w) != p.ID || p.CurrentView() != w || !p.Certs.Formed(w) {
		return
	}
	sentAt, _ := p.vcSentAt.At(w)
	p.Driver.LeaderStart(w, p.deadlineFrom(sentAt))
}

func (p *Pacemaker) deadlineFrom(t types.Time) types.Time {
	if p.qcWindow < 0 {
		return types.TimeInf
	}
	return t.Add(p.qcWindow)
}

// ---------------------------------------------------------------------------
// Invariants (Lemmas 5.1-5.3)
// ---------------------------------------------------------------------------

func (p *Pacemaker) violate(s string) {
	if len(p.violations) < 64 {
		p.violations = append(p.violations, fmt.Sprintf("%v %v: %s", p.RT.Now(), p.ID, s))
	}
}

// checkpoint names the step an invariant check follows: a handled
// message's kind, a boundary's view, or a bare label. It is formatted only
// when a check fails, so a passing check allocates nothing.
type checkpoint struct {
	step string
	kind msg.Kind
	view types.View
}

func (c checkpoint) String() string {
	switch c.step {
	case "handle":
		return "handle " + c.kind.String()
	case "boundary":
		return "boundary " + c.view.String()
	}
	return c.step
}

func (p *Pacemaker) checkInvariants(ctx checkpoint) {
	if !p.cfg.CheckInvariants || p.inBump > 0 {
		return
	}
	lc, view := p.clk.Read(), p.CurrentView()
	if lc < p.lastLC {
		p.violate(fmt.Sprintf("%s: clock regressed %v -> %v (Lemma 5.2)", ctx, p.lastLC, lc))
	}
	p.lastLC = lc
	if view >= 0 && p.cfg.EpochOf(view) != p.epoch {
		p.violate(fmt.Sprintf("%s: E(%v)=%v != epoch %v (Lemma 5.1)", ctx, view, p.cfg.EpochOf(view), p.epoch))
	}
	// Lemma 5.3: in initial view v0, lc ∈ [c_v0, c_v0+2]; in view v0+1,
	// lc ∈ [c_v0+1, c_v0+2]. The upper bounds carry one tick of slack:
	// on a drifting hardware clock (clock.Drift) the local→base map is
	// not surjective, so the boundary alarm can only fire at the first
	// representable reading at-or-after c — up to clockQuantum past it.
	switch {
	case view < 0:
		if lc > p.clockTime(0).Add(clockQuantum) {
			p.violate(fmt.Sprintf("%s: lc=%v beyond c_0 before entering any view (Lemma 5.3)", ctx, lc))
		}
	case view.Initial():
		if lc < p.clockTime(view) || lc > p.clockTime(view+2).Add(clockQuantum) {
			p.violate(fmt.Sprintf("%s: lc=%v outside [c_%d, c_%d] (Lemma 5.3i)", ctx, lc, view, view+2))
		}
	default:
		if lc < p.clockTime(view) || lc > p.clockTime(view+1).Add(clockQuantum) {
			p.violate(fmt.Sprintf("%s: lc=%v outside [c_%d, c_%d] (Lemma 5.3ii)", ctx, lc, view, view+1))
		}
	}
}

// clockQuantum is the invariant checker's allowance for clock
// discretization: a drifted clock advances in (at most) 2ns local steps
// within clock.Drift's ±5·10⁵ ppm hard range, so a reading taken when an
// alarm for local time c fires can exceed c by one skipped nanosecond.
const clockQuantum = time.Nanosecond
