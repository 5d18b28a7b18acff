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

// Gamma returns Fever's view duration Γ = 2(x+1)Δ (§3.3).
func Gamma(cfg types.Config) time.Duration { return 2 * time.Duration(cfg.X+1) * cfg.Delta }

// Pacemaker is one processor's Fever instance.
type Pacemaker struct {
	baseline.Node
	clk    *clock.Clock
	ticker *clock.Ticker
	gamma  time.Duration
}

var _ pacemaker.Pacemaker = (*Pacemaker)(nil)

// New creates a Fever pacemaker.
func New(cfg types.Config, ep network.Endpoint, rt clock.Runtime, clk *clock.Clock,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *Pacemaker {
	return &Pacemaker{
		Node:  baseline.NewNode(cfg, ep, rt, suite, driver, obs, tr),
		clk:   clk,
		gamma: Gamma(cfg),
	}
}

// Start boots the protocol. The clock's initial value encodes the model's
// bounded initial skew.
func (p *Pacemaker) Start() {
	p.ticker = clock.NewTicker(p.clk, p.gamma, p.onBoundary)
	p.ticker.StartInclusive()
}

// Leader implements pacemaker.Pacemaker: lead(v) = ⌊v/2⌋ mod n (§3.3).
func (p *Pacemaker) Leader(v types.View) types.NodeID {
	if v < 0 {
		return types.NoNode
	}
	return types.NodeID((v / 2) % types.View(p.Cfg.N))
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
	if w.Initial() && w > p.CurrentView() {
		p.enterView(w)
	}
}

// enterView enters w > view. An initial view starts with a view message
// to its leader, who starts driving it once it holds the VC; the leader
// of a non-initial view starts at once.
func (p *Pacemaker) enterView(w types.View) {
	p.Advance(w, !w.Initial() && p.Leader(w) == p.ID)
	if w.Initial() {
		p.Tr.Emit(p.RT.Now(), p.ID, trace.SendView, w, "")
		p.EP.Send(p.Leader(w), &msg.ViewMsg{V: w, Sig: p.Signer.Sign(p.Stmt.View(w))})
		if p.Leader(w) == p.ID && p.Certs.Formed(w) {
			p.Driver.LeaderStart(w, types.TimeInf)
		}
	}
	p.Certs.Forget(w - 2)
}

func (p *Pacemaker) onViewMsg(from types.NodeID, vm *msg.ViewMsg) {
	w := vm.V
	if !w.Initial() || p.Leader(w) != p.ID || w < p.CurrentView() {
		return
	}
	vc, ok := p.Certs.Collect(from, w, vm.Sig, p.Stmt.View(w), p.Cfg.Majority())
	if !ok {
		return
	}
	p.Tr.Emit(p.RT.Now(), p.ID, trace.FormVC, w, "")
	p.EP.Broadcast(&msg.VC{V: w, Agg: vc})
	if p.CurrentView() == w {
		p.Driver.LeaderStart(w, types.TimeInf)
	}
}

// onVC implements the bump rule: a VC for view v with lc < c_v bumps the
// clock to c_v; the landing enters the view via the clock trigger. A VC
// that cannot bump — a replay included — is dropped unverified.
func (p *Pacemaker) onVC(vc *msg.VC) {
	w := vc.V
	target := p.clockTime(w)
	if !w.Initial() || p.clk.Read() >= target {
		return
	}
	if p.Suite.VerifyAggregate(p.Stmt.View(w), vc.Agg, p.Cfg.Majority()) != nil {
		return
	}
	p.bump(w, target, "vc")
}

// onQC implements the bump rule for QCs and non-initial view entry.
func (p *Pacemaker) onQC(qc *msg.QC) {
	next := qc.V + 1
	if !next.Initial() && next > p.CurrentView() {
		p.enterView(next)
	}
	p.bump(next, p.clockTime(next), "qc")
}

// bump moves the clock forward to c_w = target; a clock already there or
// past it stays put, so replayed certificates change nothing.
func (p *Pacemaker) bump(w types.View, target types.Time, cause string) {
	if p.clk.BumpTo(target) {
		p.Tr.Emit(p.RT.Now(), p.ID, trace.Bump, w, cause)
		p.ticker.Jumped(target)
	}
}
