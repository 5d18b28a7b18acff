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

// Gamma returns Cogsworth's per-view progress timeout (x+1)Δ, the
// protocol's view duration for scenario sizing.
func Gamma(cfg types.Config) time.Duration { return time.Duration(cfg.X+1) * cfg.Delta }

// retryTimeout is the per-aggregator relay timeout, 4Δ.
func retryTimeout(cfg types.Config) time.Duration { return 4 * cfg.Delta }

// Pacemaker is one processor's Cogsworth instance.
type Pacemaker struct {
	baseline.Node

	viewCancel  func()
	retryCancel func()
	syncTarget  types.View // view currently being wished for (0 = none)
	attempt     int
}

var _ pacemaker.Pacemaker = (*Pacemaker)(nil)

// New creates a Cogsworth pacemaker.
func New(cfg types.Config, ep network.Endpoint, rt clock.Runtime,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *Pacemaker {
	return &Pacemaker{Node: baseline.NewNode(cfg, ep, rt, suite, driver, obs, tr)}
}

// Start boots the protocol in view 0.
func (p *Pacemaker) Start() { p.enterView(0) }

// aggregator returns the k-th aggregation leader for view w: the relay
// sequence starts at lead(w) and walks the ring.
func (p *Pacemaker) aggregator(w types.View, k int) types.NodeID {
	return types.NodeID((int(p.Leader(w)) + k) % p.Cfg.N)
}

// Handle implements pacemaker.Pacemaker.
func (p *Pacemaker) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.Wish:
		p.onWish(from, mm)
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
	p.cancelTimers()
	p.syncTarget = 0
	p.Advance(w, p.Leader(w) == p.ID)
	p.viewCancel = p.RT.After(Gamma(p.Cfg), func() { p.onViewTimeout(w) })
	p.Certs.Forget(w - 1)
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
	if p.CurrentView() != w {
		return
	}
	p.syncTarget = w + 1
	p.attempt = 0
	p.sendWish()
}

// sendWish sends this processor's wish for the sync target to the current
// aggregation leader and arms the relay retry.
func (p *Pacemaker) sendWish() {
	target := p.syncTarget
	if target <= p.CurrentView() || target == 0 {
		return
	}
	agg := p.aggregator(target, p.attempt)
	p.Tr.Emitf(p.RT.Now(), p.ID, trace.SendView, target, "wish attempt %d -> %v", p.attempt, agg)
	p.EP.Send(agg, &msg.Wish{V: target, Sig: p.Signer.Sign(p.Stmt.Wish(target))})
	attempt := p.attempt
	p.retryCancel = p.RT.After(retryTimeout(p.Cfg), func() {
		if p.syncTarget != target || p.CurrentView() >= target || p.attempt != attempt {
			return
		}
		p.attempt++
		if p.attempt >= p.Cfg.N {
			p.attempt = 0 // wrap: keep trying around the ring
		}
		p.sendWish()
	})
}

// onWish aggregates wishes addressed to this processor: any processor a
// wish reaches acts as aggregator for it.
func (p *Pacemaker) onWish(from types.NodeID, w *msg.Wish) {
	t := w.V
	if t <= p.CurrentView() {
		return
	}
	tc, ok := p.Certs.Collect(from, t, w.Sig, p.Stmt.Wish(t), p.Cfg.Majority())
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
	if p.Suite.VerifyAggregate(p.Stmt.Wish(t), tc.Agg, p.Cfg.Majority()) != nil {
		return
	}
	p.enterView(t)
}
