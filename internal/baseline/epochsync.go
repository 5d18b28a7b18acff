package baseline

import (
	"time"

	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/trace"
	"lumiere/internal/types"
)

// EpochSync is the epoch-synchronization machine of LP22 (§3.2) and
// RareSync (§6): views are batched into epochs of f+1; at an epoch
// boundary the processor pauses its clock and broadcasts an epoch-view
// message, 2f+1 of which form an EC that is re-broadcast and lets every
// processor enter the epoch with its clock set to the boundary; inside
// an epoch, views are entered when the local clock reaches c_v = Γ·v.
//
// The two protocols differ in one rule, fixed at construction: LP22 is
// optimistically responsive — a QC for v also enters non-epoch view v+1
// — and RareSync is not, so its views advance on the clock alone.
type EpochSync struct {
	Node
	clk        *clock.Clock
	ticker     *clock.Ticker
	responsive bool
	gamma      time.Duration
	epochLen   types.View
	epoch      types.Epoch
}

var _ pacemaker.Pacemaker = (*EpochSync)(nil)

// EpochGamma returns the machine's view duration Γ = (x+1)Δ (§3.2).
func EpochGamma(cfg types.Config) time.Duration { return time.Duration(cfg.X+1) * cfg.Delta }

// EpochLen returns the machine's views per epoch, f+1.
func EpochLen(cfg types.Config) types.View { return types.View(cfg.F + 1) }

// NewEpochSync creates the machine; responsive selects LP22's QC rule
// (see EpochSync).
func NewEpochSync(cfg types.Config, responsive bool, ep network.Endpoint, rt clock.Runtime, clk *clock.Clock,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *EpochSync {
	return &EpochSync{
		Node:       NewNode(cfg, ep, rt, suite, driver, obs, tr),
		clk:        clk,
		responsive: responsive,
		gamma:      EpochGamma(cfg),
		epochLen:   EpochLen(cfg),
		epoch:      types.NoEpoch,
	}
}

// Start boots the protocol; lc(p) = 0 triggers the epoch-0 heavy sync.
func (p *EpochSync) Start() {
	p.ticker = clock.NewTicker(p.clk, p.gamma, p.onBoundary)
	p.ticker.StartInclusive()
}

// CurrentEpoch implements pacemaker.Pacemaker.
func (p *EpochSync) CurrentEpoch() types.Epoch { return p.epoch }

func (p *EpochSync) epochOf(v types.View) types.Epoch {
	if v < 0 {
		return types.NoEpoch
	}
	return types.Epoch(v / p.epochLen)
}

func (p *EpochSync) isEpochView(v types.View) bool { return v >= 0 && v%p.epochLen == 0 }

// Handle implements pacemaker.Pacemaker. Without the responsive rule QCs
// play no part in view entry.
func (p *EpochSync) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.EpochViewMsg:
		p.onEpochViewMsg(from, mm)
	case *msg.EC:
		p.onEC(mm)
	case *msg.QC:
		if p.responsive {
			p.onQC(mm)
		}
	}
}

// onBoundary fires when lc attains c_w; the Ticker delivers each
// boundary at most once.
func (p *EpochSync) onBoundary(w types.View) {
	if w <= p.view {
		return
	}
	if p.isEpochView(w) {
		// Pause and start the heavy synchronization (§3.2 "The
		// instructions for entering epoch views"). There is no
		// success criterion and no Δ-wait.
		p.clk.Pause()
		p.Tr.Emit(p.RT.Now(), p.ID, trace.PauseClock, w, "epoch boundary")
		p.Obs.OnHeavySync(w, p.RT.Now())
		p.Tr.Emit(p.RT.Now(), p.ID, trace.SendEpoch, w, "")
		p.EP.Broadcast(&msg.EpochViewMsg{V: w, Sig: p.Signer.Sign(p.Stmt.EpochView(w))})
		return
	}
	// Clock entry is for views of the epoch this processor has
	// synchronized into.
	if p.epochOf(w) == p.epoch {
		p.enterView(w)
	}
}

func (p *EpochSync) onEpochViewMsg(from types.NodeID, em *msg.EpochViewMsg) {
	w := em.V
	if !p.isEpochView(w) || w <= p.view {
		return
	}
	ec, ok := p.Certs.Collect(from, w, em.Sig, p.Stmt.EpochView(w), p.Cfg.Quorum())
	if !ok {
		return
	}
	// §3.2: the assembler sends the EC to all processors, then enters.
	p.EP.Broadcast(&msg.EC{V: w, Agg: ec})
	p.enterEpoch(w)
}

func (p *EpochSync) onEC(ec *msg.EC) {
	w := ec.V
	if !p.isEpochView(w) || w <= p.view {
		return
	}
	if p.Suite.VerifyAggregate(p.Stmt.EpochView(w), ec.Agg, p.Cfg.Quorum()) != nil {
		return
	}
	p.enterEpoch(w)
}

// enterEpoch implements "upon seeing an EC for view v while in any lower
// view: set lc(p) := c_v, unpause, enter epoch e and view v".
func (p *EpochSync) enterEpoch(w types.View) {
	p.Tr.Emit(p.RT.Now(), p.ID, trace.SeeEC, w, "")
	if p.clk.Paused() {
		p.clk.Unpause()
		p.Tr.Emit(p.RT.Now(), p.ID, trace.Unpause, w, "ec")
	}
	p.enterView(w)
	if target := types.Time(w) * types.Time(p.gamma); p.clk.BumpTo(target) {
		p.Tr.Emit(p.RT.Now(), p.ID, trace.Bump, w, "ec")
		p.ticker.Jumped(target)
	} else {
		p.ticker.Rearm()
	}
}

// onQC implements responsive entry: enter non-epoch view v+1 upon a QC
// for v. Clocks are NOT bumped — LP22's defining weakness.
func (p *EpochSync) onQC(qc *msg.QC) {
	// Epoch entry requires the heavy synchronization; processors wait
	// for their clocks to reach the boundary.
	if next := qc.V + 1; next > p.view && !p.isEpochView(next) {
		p.enterView(next)
	}
}

// enterView enters w > view, moving to its epoch first.
func (p *EpochSync) enterView(w types.View) {
	if e := p.epochOf(w); e > p.epoch {
		p.epoch = e
		p.Obs.OnEnterEpoch(e, p.RT.Now())
	}
	p.Advance(w, p.Leader(w) == p.ID)
	p.Certs.Forget(types.View(p.epoch-1) * p.epochLen)
}
