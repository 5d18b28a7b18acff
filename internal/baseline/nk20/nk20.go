// Package nk20 implements the Naor-Keidar round synchronization protocol
// (DISC 2020), reconstructed from its summary in the Lumiere paper's
// Table 1 (see DESIGN.md §9 for fidelity notes).
//
// Mechanics: on a view timeout, each processor sends a signed timeout
// message for each of the next f+1 views to those views' leaders — at
// least one of which is honest. A leader holding f+1 timeout messages for
// a view it leads broadcasts a certificate that synchronizes everyone into
// that view. A single synchronization therefore costs up to O(n·f) = O(n²)
// messages, both in the worst case and whenever faults recur (the table's
// eventual O(n²)).
package nk20

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

// Config parameterizes NK20.
type Config struct {
	// Base is the execution-model configuration.
	Base types.Config
	// ViewTimeout overrides the per-view progress timeout ((x+1)Δ).
	ViewTimeout time.Duration
	// Fanout overrides the number of future views wished for (f+1).
	Fanout int
}

func (c Config) viewTimeout() time.Duration {
	if c.ViewTimeout > 0 {
		return c.ViewTimeout
	}
	return time.Duration(c.Base.X+1) * c.Base.Delta
}

func (c Config) fanout() int {
	if c.Fanout > 0 {
		return c.Fanout
	}
	return c.Base.F + 1
}

// Pacemaker is one processor's NK20 instance.
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

	view       types.View
	viewCancel func()

	timeouts quorum.VoteSets
	tcSent   quorum.Flags
	tcSeen   quorum.Flags
	qcDone   quorum.Flags
}

var _ pacemaker.Pacemaker = (*Pacemaker)(nil)

// New creates an NK20 pacemaker.
func New(cfg Config, ep network.Endpoint, rt clock.Runtime,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *Pacemaker {
	if err := cfg.Base.Validate(); err != nil {
		panic(fmt.Sprintf("nk20: invalid config: %v", err))
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
	p.timeouts.Reset(cfg.Base.N)
	return p
}

// Start boots the protocol in view 0.
func (p *Pacemaker) Start() { p.enterView(0) }

// CurrentView implements pacemaker.Pacemaker.
func (p *Pacemaker) CurrentView() types.View { return p.view }

// CurrentEpoch implements pacemaker.Pacemaker; NK20 has no epochs.
func (p *Pacemaker) CurrentEpoch() types.Epoch { return 0 }

// Leader implements pacemaker.Pacemaker: round robin.
func (p *Pacemaker) Leader(v types.View) types.NodeID {
	if v < 0 {
		return types.NoNode
	}
	return types.NodeID(v % types.View(p.cfg.Base.N))
}

// Handle implements pacemaker.Pacemaker.
func (p *Pacemaker) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.Timeout:
		p.onTimeout(from, mm)
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
	if p.viewCancel != nil {
		p.viewCancel()
		p.viewCancel = nil
	}
	p.view = w
	p.tr.Emit(p.rt.Now(), p.id, trace.EnterView, w, "")
	p.obs.OnEnterView(w, p.rt.Now())
	p.driver.EnterView(w)
	if p.Leader(w) == p.id {
		p.driver.LeaderStart(w, types.TimeInf)
	}
	p.viewCancel = p.rt.After(p.cfg.viewTimeout(), func() { p.onViewExpired(w) })
	p.prune()
}

// onViewExpired sends timeout messages for the next f+1 views to their
// leaders — the O(n·f) fanout.
func (p *Pacemaker) onViewExpired(w types.View) {
	if p.view != w {
		return
	}
	for k := 1; k <= p.cfg.fanout(); k++ {
		t := w + types.View(k)
		p.ep.Send(p.Leader(t), &msg.Timeout{V: t, Sig: p.signer.Sign(p.stmt.Timeout(t))})
	}
	p.tr.Emitf(p.rt.Now(), p.id, trace.SendView, w+1, "timeout fanout %d", p.cfg.fanout())
	// Re-arm: if synchronization fails (all f+1 leaders faulty cannot
	// happen, but certificates can be delayed), try again.
	p.viewCancel = p.rt.After(p.cfg.viewTimeout(), func() { p.onViewExpired(w) })
}

// onTimeout aggregates timeout messages for views this processor leads.
func (p *Pacemaker) onTimeout(from types.NodeID, tm *msg.Timeout) {
	t := tm.V
	if t <= p.view || p.Leader(t) != p.id || p.tcSent.Has(t) {
		return
	}
	if tm.Sig.Signer != from || p.suite.Verify(p.stmt.Timeout(t), tm.Sig) != nil {
		return
	}
	sigs := p.timeouts.Get(t)
	sigs.Add(tm.Sig)
	if sigs.Count() < p.cfg.Base.Majority() {
		return
	}
	agg, err := p.suite.Aggregate(p.stmt.Timeout(t), sigs.Sigs())
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
	if p.suite.VerifyAggregate(p.stmt.Timeout(t), tc.Agg, p.cfg.Base.Majority()) != nil {
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
	p.timeouts.DropBelow(low)
	p.tcSent.ForgetBelow(low)
	p.tcSeen.ForgetBelow(low)
	p.qcDone.ForgetBelow(low)
}
