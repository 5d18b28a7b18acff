// Package viewcore implements the underlying view-based protocol assumed
// in §2 of the paper. It is the simplest protocol satisfying the two
// conditions the analysis needs:
//
//	(⋄1) with an honest leader, if 2f+1 honest processors stay in view v
//	     from time t ≥ GST, all honest processors receive a QC for v by
//	     t + xδ — here x = 3: the leader broadcasts a proposal (δ),
//	     processors in v vote (δ), the leader aggregates 2f+1 votes into
//	     a QC and broadcasts it (δ);
//
//	(⋄2) a QC for view v requires 2f+1 processors to act as if honest
//	     and in view v — votes are signed statements bound to v.
//
// It also implements Lumiere's leader discipline (§4): an honest leader
// only produces a QC for view v if it can do so by a deadline supplied by
// the pacemaker (Γ/2 − 2Δ after the leader started driving the view).
//
// That voting round — propose → vote → certify — is the Round type. Core
// is the round at its barest: an empty proposal, an unconditional vote,
// and a QC that only advances the pacemaker. For full SMR,
// internal/hotstuff runs the same Round under a block chain, with the
// same pacemaker-facing surface.
package viewcore

import (
	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/quorum"
	"lumiere/internal/types"
)

// QCObserver is notified of QC events.
type QCObserver interface {
	// OnQCSeen fires the first time this node observes a QC for a view
	// (its own formation or a received certificate).
	OnQCSeen(qc *msg.QC, at types.Time)
	// OnQCProduced fires on the leader when it forms and broadcasts a
	// QC — the paper's "lead(v) produces a QC for view v" event that
	// defines consensus decisions for the complexity measures (§2).
	OnQCProduced(qc *msg.QC, at types.Time)
}

// Round is one processor's voting round: the wiring every engine needs
// and the per-view state of propose → vote → certify, advanced by seven
// steps that the engine calls in its own order. What is proposed, whether
// this processor may vote for it and what a QC does once observed are the
// engine's; everything (⋄1), (⋄2) and the leader discipline say is here.
type Round struct {
	Cfg    types.Config
	ID     types.NodeID
	EP     network.Endpoint
	RT     clock.Runtime
	Suite  crypto.Suite
	Signer crypto.Signer
	// Stmt is the statement scratch: sign/verify statements are rebuilt
	// in place, so the vote and QC hot paths allocate no statement
	// buffers.
	Stmt   msg.StmtScratch
	Leader func(types.View) types.NodeID // the pacemaker's schedule
	Obs    QCObserver                    // may be nil

	view      types.View
	proposals map[types.View]*msg.Proposal
	voted     quorum.Flags

	leading  types.View
	deadline types.Time
	votes    quorum.VoteSet
	done     bool
}

// NewRound wires a round for the processor behind ep, in no view.
func NewRound(cfg types.Config, ep network.Endpoint, rt clock.Runtime, suite crypto.Suite,
	leader func(types.View) types.NodeID, obs QCObserver) Round {
	return Round{
		Cfg:       cfg,
		ID:        ep.ID(),
		EP:        ep,
		RT:        rt,
		Suite:     suite,
		Signer:    suite.SignerFor(ep.ID()),
		Leader:    leader,
		Obs:       obs,
		view:      types.NoView,
		proposals: make(map[types.View]*msg.Proposal),
		leading:   types.NoView,
	}
}

// View returns the view the processor is in.
func (r *Round) View() types.View { return r.view }

// Enter moves to view v, dropping per-view state older than v−2 (only
// views ≥ the current one are ever consulted). entered is false when the
// processor is already in v or past it; pending is the proposal for v if
// it arrived early, which the engine now decides whether to vote for.
func (r *Round) Enter(v types.View) (pending *msg.Proposal, entered bool) {
	if v <= r.view {
		return nil, false
	}
	r.view = v
	for w := range r.proposals {
		if w < v-2 {
			delete(r.proposals, w)
		}
	}
	r.voted.ForgetBelow(v - 2)
	return r.proposals[v], true
}

// Lead starts collecting votes for view v under the pacemaker's QC
// deadline. It reports false — the engine must not propose — unless this
// processor leads v, has not passed it and has not started it before.
func (r *Round) Lead(v types.View, deadline types.Time) bool {
	if r.Leader(v) != r.ID || v < r.view || v <= r.leading {
		return false
	}
	r.leading = v
	r.deadline = deadline
	r.votes.ResetKeep(r.Cfg.N, r.Cfg.Quorum())
	r.done = false
	return true
}

// FromLeader reports whether p names its view's leader and came from it.
func (r *Round) FromLeader(from types.NodeID, p *msg.Proposal) bool {
	return p.Leader == from && r.Leader(p.V) == from
}

// Keep stores p unless its view has passed or already has a proposal,
// and reports whether it did. A kept proposal need not be current: read
// View afterwards, and after anything that may have entered p.V.
func (r *Round) Keep(p *msg.Proposal) bool {
	if p.V < r.view {
		return false
	}
	if _, dup := r.proposals[p.V]; dup {
		return false
	}
	r.proposals[p.V] = p
	return true
}

// Vote signs p and sends the vote to its leader, at most once per view.
func (r *Round) Vote(p *msg.Proposal) {
	if r.voted.Has(p.V) {
		return
	}
	r.voted.Set(p.V)
	sig := r.Signer.Sign(r.Stmt.Vote(p.V, &p.Hash))
	r.EP.Send(p.Leader, &msg.Vote{V: p.V, BlockHash: p.Hash, Sig: sig})
}

// Tally counts a vote for the view this processor is leading and, at the
// 2f+1st distinct valid one, aggregates the QC and broadcasts it.
func (r *Round) Tally(from types.NodeID, v *msg.Vote) {
	if v.Sig.Signer != from || r.leading != v.V || r.done {
		return
	}
	if err := r.Suite.Verify(r.Stmt.Vote(v.V, &v.BlockHash), v.Sig); err != nil {
		return
	}
	r.votes.Add(v.Sig)
	if r.votes.Count() < r.Cfg.Quorum() {
		return
	}
	// Lumiere's leader discipline: refrain from producing the QC past
	// the deadline (§4 "Initial and non-initial views").
	if r.RT.Now() > r.deadline {
		r.done = true
		return
	}
	agg, err := r.Suite.Aggregate(r.Stmt.Vote(v.V, &v.BlockHash), r.votes.Sigs())
	if err != nil {
		return
	}
	r.done = true
	qc := &msg.QC{V: v.V, BlockHash: v.BlockHash, Agg: agg}
	if r.Obs != nil {
		r.Obs.OnQCProduced(qc, r.RT.Now())
	}
	r.EP.Broadcast(qc)
}

// Core is one processor's instance of the underlying protocol: the round
// with an empty proposal, plus the window of views whose QC it has seen.
type Core struct {
	Round
	onQC   func(qc *msg.QC) // routes observed QCs to the pacemaker
	seenQC quorum.Flags
}

var _ pacemaker.Driver = (*Core)(nil)

// New creates a Core. leader is the pacemaker's schedule; onQC routes
// every newly observed QC, verified, back to the pacemaker (may be nil);
// obs receives QC events (may be nil).
func New(cfg types.Config, ep network.Endpoint, rt clock.Runtime, suite crypto.Suite,
	leader func(types.View) types.NodeID, onQC func(*msg.QC), obs QCObserver) *Core {
	return &Core{Round: NewRound(cfg, ep, rt, suite, leader, obs), onQC: onQC}
}

// EnterView implements pacemaker.Driver: follower-side view entry.
func (c *Core) EnterView(v types.View) {
	p, entered := c.Enter(v)
	if !entered {
		return
	}
	c.seenQC.ForgetBelow(v - 4)
	if p != nil {
		c.Vote(p)
	}
}

// LeaderStart implements pacemaker.Driver: broadcast the proposal for v
// and arm the QC deadline.
func (c *Core) LeaderStart(v types.View, qcDeadline types.Time) {
	if c.Lead(v, qcDeadline) {
		c.EP.Broadcast(&msg.Proposal{V: v, Leader: c.ID})
	}
}

// Handle processes proposals, votes and QC broadcasts.
func (c *Core) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.Proposal:
		c.handleProposal(from, mm)
	case *msg.Vote:
		c.Tally(from, mm)
	case *msg.QC:
		c.observeQC(mm)
	}
}

func (c *Core) handleProposal(from types.NodeID, p *msg.Proposal) {
	if !c.FromLeader(from, p) || !c.Keep(p) {
		return
	}
	if p.Justify != nil {
		c.observeQC(p.Justify) // may enter p.V, through the pacemaker
	}
	if p.V == c.View() {
		c.Vote(p)
	}
}

// observeQC verifies a QC — the node's one check of it, which the
// pacemaker relies on — registers it exactly once and routes it upward.
// Views below the pruning bound stay forgotten: a QC that old cannot
// advance the pacemaker, so it is treated as already seen.
func (c *Core) observeQC(qc *msg.QC) {
	if qc.V < c.seenQC.Bound() || c.seenQC.Has(qc.V) {
		return
	}
	if err := c.Suite.VerifyAggregate(c.Stmt.Vote(qc.V, &qc.BlockHash), qc.Agg, c.Cfg.Quorum()); err != nil {
		return
	}
	c.seenQC.Set(qc.V)
	if c.Obs != nil {
		c.Obs.OnQCSeen(qc, c.RT.Now())
	}
	if c.onQC != nil {
		c.onQC(qc)
	}
}
