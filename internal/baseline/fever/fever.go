// Package fever implements the Fever view synchronization protocol as
// described in §3.3 of the Lumiere paper. Fever operates in a stronger
// model than partial synchrony: it assumes that at the start of the
// execution the (f+1)st honest clock gap is at most Γ (the simulator
// provides this by seeding initial clock offsets; see the harness).
//
// Mechanics: leaders get two consecutive views; even ("initial") views are
// entered when lc reaches c_v, whereupon processors send a view message to
// the leader, who combines f+1 of them into a VC; odd views are entered on
// a QC for the previous view; clocks are bumped forward by QCs and VCs,
// which preserves hg_{f+1} ≤ Γ forever and makes the protocol smoothly
// optimistically responsive with O(n) messages per view.
package fever

import (
	"fmt"
	"time"

	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/quorum"
	"lumiere/internal/trace"
	"lumiere/internal/types"
)

// Config parameterizes Fever.
type Config struct {
	// Base is the execution-model configuration.
	Base types.Config
	// GammaOverride overrides Γ = 2(x+1)Δ (§3.3).
	GammaOverride time.Duration
}

// Gamma returns the view duration Γ = 2(x+1)Δ unless overridden.
func (c Config) Gamma() time.Duration {
	if c.GammaOverride > 0 {
		return c.GammaOverride
	}
	return 2 * time.Duration(c.Base.X+1) * c.Base.Delta
}

// Pacemaker is one processor's Fever instance.
type Pacemaker struct {
	cfg    Config
	id     types.NodeID
	ep     network.Endpoint
	rt     clock.Runtime
	clk    *clock.Clock
	ticker *clock.Ticker
	suite  crypto.Suite
	signer crypto.Signer
	// stmt is the statement scratch: sign/verify statements are
	// rebuilt in place, keeping the message hot paths free of
	// per-call statement allocations.
	stmt   msg.StmtScratch
	driver pacemaker.Driver
	obs    pacemaker.Observer
	tr     *trace.Tracer

	gamma time.Duration
	view  types.View

	sentView quorum.Flags
	viewMsgs quorum.VoteSets
	vcFormed quorum.Flags
	vcSeen   quorum.Flags
	qcDone   quorum.Flags
}

var _ pacemaker.Pacemaker = (*Pacemaker)(nil)

// New creates a Fever pacemaker.
func New(cfg Config, ep network.Endpoint, rt clock.Runtime, clk *clock.Clock,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *Pacemaker {
	if err := cfg.Base.Validate(); err != nil {
		panic(fmt.Sprintf("fever: invalid config: %v", err))
	}
	if obs == nil {
		obs = pacemaker.NopObserver{}
	}
	if driver == nil {
		driver = pacemaker.NopDriver{}
	}
	p := &Pacemaker{
		cfg:    cfg,
		id:     ep.ID(),
		ep:     ep,
		rt:     rt,
		clk:    clk,
		suite:  suite,
		signer: suite.SignerFor(ep.ID()),
		driver: driver,
		obs:    obs,
		tr:     tr,
		gamma:  cfg.Gamma(),
		view:   types.NoView,
	}
	p.viewMsgs.Reset(cfg.Base.N)
	return p
}

// Gamma returns the view duration Γ in effect.
func (p *Pacemaker) Gamma() time.Duration { return p.gamma }

// Start boots the protocol. The clock's initial value encodes the model's
// bounded initial skew.
func (p *Pacemaker) Start() {
	p.ticker = clock.NewTicker(p.clk, p.gamma, p.onBoundary)
	p.ticker.StartInclusive()
}

// CurrentView implements pacemaker.Pacemaker.
func (p *Pacemaker) CurrentView() types.View { return p.view }

// CurrentEpoch implements pacemaker.Pacemaker; Fever has no epochs.
func (p *Pacemaker) CurrentEpoch() types.Epoch { return 0 }

// Leader implements pacemaker.Pacemaker: lead(v) = ⌊v/2⌋ mod n (§3.3).
func (p *Pacemaker) Leader(v types.View) types.NodeID {
	if v < 0 {
		return types.NoNode
	}
	return types.NodeID((v / 2) % types.View(p.cfg.Base.N))
}

func (p *Pacemaker) clockTime(v types.View) types.Time {
	return types.Time(v) * types.Time(p.gamma)
}

// Handle implements pacemaker.Pacemaker.
func (p *Pacemaker) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.ViewMsg:
		p.onViewMsg(from, mm)
	case *msg.VC:
		p.onVC(mm)
	case *msg.QC:
		p.onQC(mm)
	}
}

// onBoundary implements "if v is initial, p enters view v when lc = c_v".
func (p *Pacemaker) onBoundary(w types.View) {
	if !w.Initial() || w <= p.view {
		return
	}
	p.enterView(w)
}

func (p *Pacemaker) enterView(w types.View) {
	if w <= p.view {
		return
	}
	p.view = w
	p.tr.Emit(p.rt.Now(), p.id, trace.EnterView, w, "")
	p.obs.OnEnterView(w, p.rt.Now())
	p.driver.EnterView(w)
	if w.Initial() {
		p.sendViewMsg(w)
		p.maybeLeaderStart(w)
	} else if p.Leader(w) == p.id {
		p.driver.LeaderStart(w, types.TimeInf)
	}
	p.prune()
}

func (p *Pacemaker) sendViewMsg(w types.View) {
	if p.sentView.Has(w) {
		return
	}
	p.sentView.Set(w)
	p.tr.Emit(p.rt.Now(), p.id, trace.SendView, w, "")
	p.ep.Send(p.Leader(w), &msg.ViewMsg{V: w, Sig: p.signer.Sign(p.stmt.View(w))})
}

func (p *Pacemaker) onViewMsg(from types.NodeID, vm *msg.ViewMsg) {
	w := vm.V
	if !w.Initial() || p.Leader(w) != p.id || w < p.view || p.vcFormed.Has(w) {
		return
	}
	if vm.Sig.Signer != from || p.suite.Verify(p.stmt.View(w), vm.Sig) != nil {
		return
	}
	sigs := p.viewMsgs.Get(w)
	sigs.Add(vm.Sig)
	if sigs.Count() < p.cfg.Base.Majority() {
		return
	}
	agg, err := p.suite.Aggregate(p.stmt.View(w), sigs.Sigs())
	if err != nil {
		return
	}
	p.vcFormed.Set(w)
	p.tr.Emit(p.rt.Now(), p.id, trace.FormVC, w, "")
	p.ep.Broadcast(&msg.VC{V: w, Agg: agg})
	p.maybeLeaderStart(w)
}

func (p *Pacemaker) maybeLeaderStart(w types.View) {
	if p.Leader(w) == p.id && p.view == w && p.vcFormed.Has(w) {
		p.driver.LeaderStart(w, types.TimeInf)
	}
}

// onVC implements the bump rule: a VC for view v with lc < c_v bumps the
// clock to c_v; the landing enters the view via the clock trigger.
func (p *Pacemaker) onVC(vc *msg.VC) {
	w := vc.V
	// Views below the pruning bound stay forgotten: the clock is already
	// at or past c_view > c_w, so the bump such an old VC could trigger
	// is a no-op.
	if !w.Initial() || w < p.vcSeen.Bound() || p.vcSeen.Has(w) {
		return
	}
	if p.suite.VerifyAggregate(p.stmt.View(w), vc.Agg, p.cfg.Base.Majority()) != nil {
		return
	}
	p.vcSeen.Set(w)
	if target := p.clockTime(w); p.clk.BumpTo(target) {
		p.tr.Emit(p.rt.Now(), p.id, trace.Bump, w, "vc")
		p.ticker.Jumped(target)
	}
}

// onQC implements the bump rule for QCs and non-initial view entry.
func (p *Pacemaker) onQC(qc *msg.QC) {
	v := qc.V
	// As in onVC, views below the pruning bound are treated as done:
	// neither the view entry nor the bump they gate can still fire.
	if v < p.qcDone.Bound() || p.qcDone.Has(v) {
		return
	}
	p.qcDone.Set(v)
	next := v + 1
	if !next.Initial() && next > p.view {
		p.enterView(next)
		if p.Leader(next) == p.id {
			p.driver.LeaderStart(next, types.TimeInf)
		}
	}
	if target := p.clockTime(next); p.clk.BumpTo(target) {
		p.tr.Emit(p.rt.Now(), p.id, trace.Bump, next, "qc")
		p.ticker.Jumped(target)
	}
}

func (p *Pacemaker) prune() {
	low := p.view - 2
	p.sentView.ForgetBelow(low)
	p.vcFormed.ForgetBelow(low)
	p.vcSeen.ForgetBelow(low)
	p.qcDone.ForgetBelow(low)
	p.viewMsgs.DropBelow(low)
}
