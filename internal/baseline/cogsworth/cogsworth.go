// Package cogsworth implements the Cogsworth Byzantine view
// synchronization protocol, reconstructed from [Naor, Baudet, Malkhi,
// Spiegelman 2021] as summarized in the Lumiere paper's Table 1 (see
// DESIGN.md §9 for fidelity notes).
//
// Mechanics: on a view timeout, processors send a signed wish for the next
// view to an aggregation leader; an honest aggregator combines f+1 wishes
// into a timeout certificate (TC) and broadcasts it, synchronizing
// everyone into the view for O(n) messages. Faulty aggregators are skipped
// by relaying the wish to successive aggregators on a retry timer, which
// yields the table's shapes: expected O(n) per view change when leaders
// are honest, but O(n + n·f_a²) eventual and O(n³) worst-case
// communication, with O(f_a²Δ + δ) eventual and O(n²Δ) worst-case latency.
package cogsworth

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

// Config parameterizes Cogsworth.
type Config struct {
	// Base is the execution-model configuration.
	Base types.Config
	// ViewTimeout overrides the per-view progress timeout ((x+1)Δ).
	ViewTimeout time.Duration
	// RetryTimeout overrides the per-aggregator relay timeout (4Δ).
	RetryTimeout time.Duration
}

func (c Config) viewTimeout() time.Duration {
	if c.ViewTimeout > 0 {
		return c.ViewTimeout
	}
	return time.Duration(c.Base.X+1) * c.Base.Delta
}

func (c Config) retryTimeout() time.Duration {
	if c.RetryTimeout > 0 {
		return c.RetryTimeout
	}
	return 4 * c.Base.Delta
}

// Pacemaker is one processor's Cogsworth instance.
type Pacemaker struct {
	cfg    Config
	id     types.NodeID
	ep     network.Endpoint
	rt     clock.Runtime
	suite  crypto.Suite
	signer crypto.Signer
	// stmt is the statement scratch: sign/verify statements are
	// rebuilt in place, keeping the message hot paths free of
	// per-call statement allocations.
	stmt   msg.StmtScratch
	driver pacemaker.Driver
	obs    pacemaker.Observer
	tr     *trace.Tracer

	view        types.View
	viewCancel  func()
	retryCancel func()
	syncTarget  types.View // view currently being wished for (0 = none)
	attempt     int

	wishes quorum.VoteSets
	tcSent quorum.Flags
	tcSeen quorum.Flags
	qcDone quorum.Flags
}

var _ pacemaker.Pacemaker = (*Pacemaker)(nil)

// New creates a Cogsworth pacemaker.
func New(cfg Config, ep network.Endpoint, rt clock.Runtime,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *Pacemaker {
	if err := cfg.Base.Validate(); err != nil {
		panic(fmt.Sprintf("cogsworth: invalid config: %v", err))
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
		suite:  suite,
		signer: suite.SignerFor(ep.ID()),
		driver: driver,
		obs:    obs,
		tr:     tr,
		view:   types.NoView,
	}
	p.wishes.Reset(cfg.Base.N)
	return p
}

// Start boots the protocol in view 0.
func (p *Pacemaker) Start() { p.enterView(0) }

// CurrentView implements pacemaker.Pacemaker.
func (p *Pacemaker) CurrentView() types.View { return p.view }

// CurrentEpoch implements pacemaker.Pacemaker; Cogsworth has no epochs.
func (p *Pacemaker) CurrentEpoch() types.Epoch { return 0 }

// Leader implements pacemaker.Pacemaker: round robin.
func (p *Pacemaker) Leader(v types.View) types.NodeID {
	if v < 0 {
		return types.NoNode
	}
	return types.NodeID(v % types.View(p.cfg.Base.N))
}

// aggregator returns the k-th aggregation leader for view w: the relay
// sequence starts at lead(w) and walks the ring.
func (p *Pacemaker) aggregator(w types.View, k int) types.NodeID {
	return types.NodeID((int(p.Leader(w)) + k) % p.cfg.Base.N)
}

// Handle implements pacemaker.Pacemaker.
func (p *Pacemaker) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.Wish:
		p.onWish(from, mm)
	case *msg.TC:
		p.onTC(mm)
	case *msg.QC:
		p.onQC(mm)
	}
}

func (p *Pacemaker) enterView(w types.View) {
	if w <= p.view {
		return
	}
	p.cancelTimers()
	p.view = w
	p.syncTarget = 0
	p.tr.Emit(p.rt.Now(), p.id, trace.EnterView, w, "")
	p.obs.OnEnterView(w, p.rt.Now())
	p.driver.EnterView(w)
	if p.Leader(w) == p.id {
		p.driver.LeaderStart(w, types.TimeInf)
	}
	p.viewCancel = p.rt.After(p.cfg.viewTimeout(), func() { p.onViewTimeout(w) })
	p.prune()
}

func (p *Pacemaker) cancelTimers() {
	if p.viewCancel != nil {
		p.viewCancel()
		p.viewCancel = nil
	}
	if p.retryCancel != nil {
		p.retryCancel()
		p.retryCancel = nil
	}
}

// onViewTimeout begins the wish relay for the next view.
func (p *Pacemaker) onViewTimeout(w types.View) {
	if p.view != w {
		return
	}
	p.beginSync(w + 1)
}

func (p *Pacemaker) beginSync(target types.View) {
	p.syncTarget = target
	p.attempt = 0
	p.sendWish()
}

// sendWish sends this processor's wish for the sync target to the current
// aggregation leader and arms the relay retry.
func (p *Pacemaker) sendWish() {
	target := p.syncTarget
	if target <= p.view || target == 0 {
		return
	}
	agg := p.aggregator(target, p.attempt)
	p.tr.Emitf(p.rt.Now(), p.id, trace.SendView, target, "wish attempt %d -> %v", p.attempt, agg)
	p.ep.Send(agg, &msg.Wish{V: target, Sig: p.signer.Sign(p.stmt.Wish(target))})
	attempt := p.attempt
	p.retryCancel = p.rt.After(p.cfg.retryTimeout(), func() {
		if p.syncTarget != target || p.view >= target || p.attempt != attempt {
			return
		}
		p.attempt++
		if p.attempt >= p.cfg.Base.N {
			p.attempt = 0 // wrap: keep trying around the ring
		}
		p.sendWish()
	})
}

// onWish aggregates wishes addressed to this processor.
func (p *Pacemaker) onWish(from types.NodeID, w *msg.Wish) {
	t := w.V
	if t <= p.view || p.tcSent.Has(t) {
		return
	}
	if w.Sig.Signer != from || p.suite.Verify(p.stmt.Wish(t), w.Sig) != nil {
		return
	}
	sigs := p.wishes.Get(t)
	sigs.Add(w.Sig)
	if sigs.Count() < p.cfg.Base.Majority() {
		return
	}
	agg, err := p.suite.Aggregate(p.stmt.Wish(t), sigs.Sigs())
	if err != nil {
		return
	}
	p.tcSent.Set(t)
	p.tr.Emit(p.rt.Now(), p.id, trace.SeeTC, t, "aggregated")
	p.ep.Broadcast(&msg.TC{V: t, Agg: agg})
}

func (p *Pacemaker) onTC(tc *msg.TC) {
	t := tc.V
	if t <= p.view || p.tcSeen.Has(t) {
		return
	}
	if p.suite.VerifyAggregate(p.stmt.Wish(t), tc.Agg, p.cfg.Base.Majority()) != nil {
		return
	}
	p.tcSeen.Set(t)
	p.enterView(t)
}

// onQC implements responsive entry into the next view.
func (p *Pacemaker) onQC(qc *msg.QC) {
	v := qc.V
	if v < p.view || p.qcDone.Has(v) {
		return
	}
	p.qcDone.Set(v)
	p.enterView(v + 1)
}

func (p *Pacemaker) prune() {
	low := p.view - 1
	p.wishes.DropBelow(low)
	p.tcSent.ForgetBelow(low)
	p.tcSeen.ForgetBelow(low)
	p.qcDone.ForgetBelow(low)
}
