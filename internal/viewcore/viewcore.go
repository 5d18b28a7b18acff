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
// For full SMR, internal/hotstuff provides a chained variant with the same
// pacemaker-facing surface.
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

// Core is one processor's instance of the underlying protocol.
type Core struct {
	cfg    types.Config
	id     types.NodeID
	ep     network.Endpoint
	rt     clock.Runtime
	suite  crypto.Suite
	signer crypto.Signer
	leader func(types.View) types.NodeID
	onQC   func(qc *msg.QC) // routes observed QCs to the pacemaker
	obs    QCObserver

	view      types.View
	proposals map[types.View]*msg.Proposal
	voted     quorum.Flags
	seenQC    quorum.Flags

	leading  types.View
	deadline types.Time
	votes    quorum.VoteSet
	done     bool

	// stmt is the statement scratch: sign/verify statements are rebuilt
	// in place, so the vote and QC hot paths allocate no statement
	// buffers.
	stmt msg.StmtScratch
}

var _ pacemaker.Driver = (*Core)(nil)

// New creates a Core. leader is the pacemaker's schedule; onQC routes
// every newly observed QC, verified, back to the pacemaker (may be nil);
// obs receives QC events (may be nil).
func New(cfg types.Config, ep network.Endpoint, rt clock.Runtime, suite crypto.Suite,
	leader func(types.View) types.NodeID, onQC func(*msg.QC), obs QCObserver) *Core {
	return &Core{
		cfg:       cfg,
		id:        ep.ID(),
		ep:        ep,
		rt:        rt,
		suite:     suite,
		signer:    suite.SignerFor(ep.ID()),
		leader:    leader,
		onQC:      onQC,
		obs:       obs,
		view:      types.NoView,
		proposals: make(map[types.View]*msg.Proposal),
		leading:   types.NoView,
	}
}

// EnterView implements pacemaker.Driver: follower-side view entry.
func (c *Core) EnterView(v types.View) {
	if v <= c.view {
		return
	}
	c.view = v
	c.pruneBelow(v)
	if p, ok := c.proposals[v]; ok {
		c.voteFor(p)
	}
}

// LeaderStart implements pacemaker.Driver: broadcast the proposal for v
// and arm the QC deadline.
func (c *Core) LeaderStart(v types.View, qcDeadline types.Time) {
	if c.leader(v) != c.id || v < c.view || v <= c.leading {
		return
	}
	c.leading = v
	c.deadline = qcDeadline
	c.votes.Reset(c.cfg.N)
	c.done = false
	c.ep.Broadcast(&msg.Proposal{V: v, Leader: c.id})
}

// Handle processes proposals, votes and QC broadcasts.
func (c *Core) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.Proposal:
		c.handleProposal(from, mm)
	case *msg.Vote:
		c.handleVote(from, mm)
	case *msg.QC:
		c.observeQC(mm)
	}
}

func (c *Core) handleProposal(from types.NodeID, p *msg.Proposal) {
	if p.Leader != from || c.leader(p.V) != from {
		return // not from the view's leader
	}
	if p.V < c.view {
		return
	}
	if _, dup := c.proposals[p.V]; dup {
		return
	}
	c.proposals[p.V] = p
	if p.Justify != nil {
		c.observeQC(p.Justify)
	}
	if p.V == c.view {
		c.voteFor(p)
	}
}

func (c *Core) voteFor(p *msg.Proposal) {
	if c.voted.Has(p.V) {
		return
	}
	c.voted.Set(p.V)
	sig := c.signer.Sign(c.stmt.Vote(p.V, &p.Hash))
	c.ep.Send(p.Leader, &msg.Vote{V: p.V, BlockHash: p.Hash, Sig: sig})
}

func (c *Core) handleVote(from types.NodeID, v *msg.Vote) {
	if v.Sig.Signer != from || c.leading != v.V || c.done {
		return
	}
	if err := c.suite.Verify(c.stmt.Vote(v.V, &v.BlockHash), v.Sig); err != nil {
		return
	}
	c.votes.Add(v.Sig)
	if c.votes.Count() < c.cfg.Quorum() {
		return
	}
	// Lumiere's leader discipline: refrain from producing the QC past
	// the deadline (§4 "Initial and non-initial views").
	if c.rt.Now() > c.deadline {
		c.done = true
		return
	}
	agg, err := c.suite.Aggregate(c.stmt.Vote(v.V, &v.BlockHash), c.votes.Sigs())
	if err != nil {
		return
	}
	c.done = true
	qc := &msg.QC{V: v.V, BlockHash: v.BlockHash, Agg: agg}
	if c.obs != nil {
		c.obs.OnQCProduced(qc, c.rt.Now())
	}
	c.ep.Broadcast(qc)
}

// observeQC verifies a QC — the node's one check of it, which the
// pacemaker relies on — registers it exactly once and routes it upward.
// Views below the pruning bound stay forgotten: a QC that old cannot
// advance the pacemaker, so it is treated as already seen.
func (c *Core) observeQC(qc *msg.QC) {
	if qc.V < c.seenQC.Bound() || c.seenQC.Has(qc.V) {
		return
	}
	if err := c.suite.VerifyAggregate(c.stmt.Vote(qc.V, &qc.BlockHash), qc.Agg, c.cfg.Quorum()); err != nil {
		return
	}
	c.seenQC.Set(qc.V)
	if c.obs != nil {
		c.obs.OnQCSeen(qc, c.rt.Now())
	}
	if c.onQC != nil {
		c.onQC(qc)
	}
}

// pruneBelow drops per-view state older than v−2 to bound memory over
// long executions.
func (c *Core) pruneBelow(v types.View) {
	low := v - 2
	for w := range c.proposals {
		if w < low {
			delete(c.proposals, w)
		}
	}
	c.voted.ForgetBelow(low)
	c.seenQC.ForgetBelow(low - 2)
}
