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
	"time"

	"lumiere/internal/baseline"
	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/trace"
	"lumiere/internal/types"
)

// Gamma returns NK20's per-view progress timeout (x+1)Δ, the protocol's
// view duration for scenario sizing.
func Gamma(cfg types.Config) time.Duration { return time.Duration(cfg.X+1) * cfg.Delta }

// Pacemaker is one processor's NK20 instance.
type Pacemaker struct {
	baseline.Node
	viewCancel func()
}

var _ pacemaker.Pacemaker = (*Pacemaker)(nil)

// New creates an NK20 pacemaker.
func New(cfg types.Config, ep network.Endpoint, rt clock.Runtime,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *Pacemaker {
	return &Pacemaker{Node: baseline.NewNode(cfg, ep, rt, suite, driver, obs, tr)}
}

// Start boots the protocol in view 0.
func (p *Pacemaker) Start() { p.enterView(0) }

// Handle implements pacemaker.Pacemaker.
func (p *Pacemaker) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.Timeout:
		p.onTimeout(from, mm)
	case *msg.TC:
		p.onTC(mm)
	case *msg.QC:
		// Responsive entry into the next view.
		p.enterView(mm.V + 1)
	}
}

func (p *Pacemaker) enterView(w types.View) {
	if w <= p.CurrentView() {
		return
	}
	if p.viewCancel != nil {
		p.viewCancel()
	}
	p.Advance(w, p.Leader(w) == p.ID)
	p.viewCancel = p.RT.After(Gamma(p.Cfg), func() { p.onViewExpired(w) })
	p.Certs.Forget(w - 1)
}

// onViewExpired sends timeout messages for the next f+1 views to their
// leaders — the O(n·f) fanout.
func (p *Pacemaker) onViewExpired(w types.View) {
	if p.CurrentView() != w {
		return
	}
	fanout := p.Cfg.F + 1
	for k := 1; k <= fanout; k++ {
		t := w + types.View(k)
		p.EP.Send(p.Leader(t), &msg.Timeout{V: t, Sig: p.Signer.Sign(p.Stmt.Timeout(t))})
	}
	p.Tr.Emitf(p.RT.Now(), p.ID, trace.SendView, w+1, "timeout fanout %d", fanout)
	// Re-arm: if synchronization fails (all f+1 leaders faulty cannot
	// happen, but certificates can be delayed), try again.
	p.viewCancel = p.RT.After(Gamma(p.Cfg), func() { p.onViewExpired(w) })
}

// onTimeout aggregates timeout messages for views this processor leads.
func (p *Pacemaker) onTimeout(from types.NodeID, tm *msg.Timeout) {
	t := tm.V
	if t <= p.CurrentView() || p.Leader(t) != p.ID {
		return
	}
	tc, ok := p.Certs.Collect(from, t, tm.Sig, p.Stmt.Timeout(t), p.Cfg.Majority())
	if !ok {
		return
	}
	p.Tr.Emit(p.RT.Now(), p.ID, trace.SeeTC, t, "aggregated")
	p.EP.Broadcast(&msg.TC{V: t, Agg: tc})
}

// onTC synchronizes into the view a valid TC names.
func (p *Pacemaker) onTC(tc *msg.TC) {
	t := tc.V
	if t <= p.CurrentView() {
		return
	}
	if p.Suite.VerifyAggregate(p.Stmt.Timeout(t), tc.Agg, p.Cfg.Majority()) != nil {
		return
	}
	p.enterView(t)
}
