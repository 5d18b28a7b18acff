// Package lp22 implements the LP22 view synchronization protocol as
// described in §3.2 of the Lumiere paper: views are batched into epochs of
// f+1 views; a heavy Θ(n²) all-to-all synchronization starts every epoch;
// non-epoch views are entered when the local clock reaches c_v or when a
// QC for the previous view arrives — but clocks are never bumped, which is
// exactly the weakness Figure 1 illustrates: after a burst of fast QCs a
// single faulty leader stalls progress until the unbumped clocks catch up,
// up to Θ(nΔ).
package lp22

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

// Config parameterizes LP22.
type Config struct {
	// Base is the execution-model configuration.
	Base types.Config
	// GammaOverride overrides Γ = (x+1)Δ (§3.2).
	GammaOverride time.Duration
	// EpochLenOverride overrides the epoch length f+1.
	EpochLenOverride types.View
}

// Gamma returns the view duration Γ = (x+1)Δ unless overridden.
func (c Config) Gamma() time.Duration {
	if c.GammaOverride > 0 {
		return c.GammaOverride
	}
	return time.Duration(c.Base.X+1) * c.Base.Delta
}

// EpochLen returns the views per epoch (f+1 in the paper).
func (c Config) EpochLen() types.View {
	if c.EpochLenOverride > 0 {
		return c.EpochLenOverride
	}
	return types.View(c.Base.F + 1)
}

// Pacemaker is one processor's LP22 instance.
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

	gamma    time.Duration
	epochLen types.View

	view     types.View
	epoch    types.Epoch
	pausedAt types.View

	sentEpochView quorum.Flags
	pauseSeen     quorum.Flags
	epochViewMsgs quorum.VoteSets
	ecDone        quorum.Flags
	qcDone        quorum.Flags
}

var _ pacemaker.Pacemaker = (*Pacemaker)(nil)

// New creates an LP22 pacemaker.
func New(cfg Config, ep network.Endpoint, rt clock.Runtime, clk *clock.Clock,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *Pacemaker {
	if err := cfg.Base.Validate(); err != nil {
		panic(fmt.Sprintf("lp22: invalid config: %v", err))
	}
	if obs == nil {
		obs = pacemaker.NopObserver{}
	}
	if driver == nil {
		driver = pacemaker.NopDriver{}
	}
	p := &Pacemaker{
		cfg:      cfg,
		id:       ep.ID(),
		ep:       ep,
		rt:       rt,
		clk:      clk,
		suite:    suite,
		signer:   suite.SignerFor(ep.ID()),
		driver:   driver,
		obs:      obs,
		tr:       tr,
		gamma:    cfg.Gamma(),
		epochLen: cfg.EpochLen(),
		view:     types.NoView,
		epoch:    types.NoEpoch,
		pausedAt: types.NoView,
	}
	p.epochViewMsgs.Reset(cfg.Base.N)
	return p
}

// Gamma returns the view duration Γ in effect.
func (p *Pacemaker) Gamma() time.Duration { return p.gamma }

// Start boots the protocol; lc(p) = 0 triggers the epoch-0 heavy sync.
func (p *Pacemaker) Start() {
	p.ticker = clock.NewTicker(p.clk, p.gamma, p.onBoundary)
	p.ticker.StartInclusive()
}

// CurrentView implements pacemaker.Pacemaker.
func (p *Pacemaker) CurrentView() types.View { return p.view }

// CurrentEpoch implements pacemaker.Pacemaker.
func (p *Pacemaker) CurrentEpoch() types.Epoch { return p.epoch }

// Leader implements pacemaker.Pacemaker: lead(v) = v mod n (§3.2).
func (p *Pacemaker) Leader(v types.View) types.NodeID {
	if v < 0 {
		return types.NoNode
	}
	return types.NodeID(v % types.View(p.cfg.Base.N))
}

func (p *Pacemaker) epochOf(v types.View) types.Epoch {
	if v < 0 {
		return types.NoEpoch
	}
	return types.Epoch(v / p.epochLen)
}

func (p *Pacemaker) isEpochView(v types.View) bool { return v >= 0 && v%p.epochLen == 0 }

func (p *Pacemaker) clockTime(v types.View) types.Time {
	return types.Time(v) * types.Time(p.gamma)
}

// Handle implements pacemaker.Pacemaker.
func (p *Pacemaker) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.EpochViewMsg:
		p.onEpochViewMsg(from, mm)
	case *msg.EC:
		p.onECMessage(mm)
	case *msg.QC:
		p.onQC(mm)
	}
}

// onBoundary fires when lc attains c_w.
func (p *Pacemaker) onBoundary(w types.View) {
	if w <= p.view {
		return
	}
	if p.isEpochView(w) {
		// Pause and start the heavy synchronization (§3.2 "The
		// instructions for entering epoch views"). LP22 has no
		// success criterion and no Δ-wait.
		if p.pauseSeen.Has(w) {
			return
		}
		p.pauseSeen.Set(w)
		p.clk.Pause()
		p.pausedAt = w
		p.tr.Emit(p.rt.Now(), p.id, trace.PauseClock, w, "epoch boundary")
		p.sendEpochViewMsg(w)
		return
	}
	if p.epochOf(w) != p.epoch {
		return
	}
	p.enterView(w)
}

func (p *Pacemaker) sendEpochViewMsg(w types.View) {
	if p.sentEpochView.Has(w) {
		return
	}
	p.sentEpochView.Set(w)
	p.obs.OnHeavySync(w, p.rt.Now())
	p.tr.Emit(p.rt.Now(), p.id, trace.SendEpoch, w, "")
	p.ep.Broadcast(&msg.EpochViewMsg{V: w, Sig: p.signer.Sign(p.stmt.EpochView(w))})
}

func (p *Pacemaker) onEpochViewMsg(from types.NodeID, em *msg.EpochViewMsg) {
	w := em.V
	if !p.isEpochView(w) || p.ecDone.Has(w) || w <= p.view {
		return
	}
	if em.Sig.Signer != from || p.suite.Verify(p.stmt.EpochView(w), em.Sig) != nil {
		return
	}
	sigs := p.epochViewMsgs.Get(w)
	sigs.Add(em.Sig)
	if sigs.Count() < p.cfg.Base.Quorum() {
		return
	}
	agg, err := p.suite.Aggregate(p.stmt.EpochView(w), sigs.Sigs())
	if err != nil {
		return
	}
	// §3.2: the assembler sends the EC to all processors, then enters.
	p.ep.Broadcast(&msg.EC{V: w, Agg: agg})
	p.enterEpoch(w)
}

func (p *Pacemaker) onECMessage(ec *msg.EC) {
	w := ec.V
	if !p.isEpochView(w) || w <= p.view {
		return
	}
	if p.suite.VerifyAggregate(p.stmt.EpochView(w), ec.Agg, p.cfg.Base.Quorum()) != nil {
		return
	}
	p.enterEpoch(w)
}

// enterEpoch implements "upon seeing an EC for view v while in any lower
// view: set lc(p) := c_v, unpause, enter epoch e and view v".
func (p *Pacemaker) enterEpoch(w types.View) {
	if p.ecDone.Has(w) || w <= p.view {
		return
	}
	p.ecDone.Set(w)
	p.tr.Emit(p.rt.Now(), p.id, trace.SeeEC, w, "")
	if p.clk.Paused() {
		p.clk.Unpause()
		p.pausedAt = types.NoView
		p.tr.Emit(p.rt.Now(), p.id, trace.Unpause, w, "ec")
	}
	p.enterView(w)
	if target := p.clockTime(w); p.clk.BumpTo(target) {
		p.tr.Emit(p.rt.Now(), p.id, trace.Bump, w, "ec")
		p.ticker.Jumped(target)
	} else {
		p.ticker.Rearm()
	}
}

// onQC implements responsive entry: enter non-epoch view v+1 upon a QC
// for v. Clocks are NOT bumped — LP22's defining weakness.
func (p *Pacemaker) onQC(qc *msg.QC) {
	v := qc.V
	if v < p.view || p.qcDone.Has(v) {
		return
	}
	p.qcDone.Set(v)
	next := v + 1
	if p.isEpochView(next) {
		// Epoch entry requires the heavy synchronization; processors
		// wait for their clocks to reach the boundary.
		return
	}
	if next > p.view {
		p.enterView(next)
	}
}

func (p *Pacemaker) enterView(w types.View) {
	if w <= p.view {
		return
	}
	p.view = w
	e := p.epochOf(w)
	if e > p.epoch {
		p.epoch = e
		p.obs.OnEnterEpoch(e, p.rt.Now())
	}
	p.tr.Emit(p.rt.Now(), p.id, trace.EnterView, w, "")
	p.obs.OnEnterView(w, p.rt.Now())
	p.driver.EnterView(w)
	if p.Leader(w) == p.id {
		p.driver.LeaderStart(w, types.TimeInf)
	}
	p.prune()
}

func (p *Pacemaker) prune() {
	lowEpochView := types.View(p.epoch-1) * p.epochLen
	p.sentEpochView.ForgetBelow(lowEpochView)
	p.pauseSeen.ForgetBelow(lowEpochView)
	p.ecDone.ForgetBelow(lowEpochView)
	p.epochViewMsgs.DropBelow(lowEpochView)
	p.qcDone.ForgetBelow(p.view - 2)
}
