package viewcore_test

import (
	"testing"
	"time"

	"lumiere/internal/baseline/baselinetest"
	"lumiere/internal/hotstuff"
	"lumiere/internal/msg"
	"lumiere/internal/replica"
	"lumiere/internal/types"
	"lumiere/internal/viewcore"
)

// The round's contract, checked through both constructors: whatever an
// engine adds around viewcore.Round, one processor of it — on a recording
// endpoint, with round-robin leaders and n = 4, f = 1 — must propose,
// vote and certify by the same rules.

// makeEngine builds one processor's engine on a unit's recording wiring.
type makeEngine func(u *baselinetest.Unit, obs viewcore.QCObserver) replica.Engine

var engines = []struct {
	name string
	make makeEngine
}{
	{"viewcore", func(u *baselinetest.Unit, obs viewcore.QCObserver) replica.Engine {
		return viewcore.New(u.Cfg, u.EP, u.Sched, u.Suite, roundRobin, nil, obs)
	}},
	{"hotstuff", func(u *baselinetest.Unit, obs viewcore.QCObserver) replica.Engine {
		return hotstuff.New(hotstuff.Config{Base: u.Cfg}, u.EP, u.Sched, u.Suite, roundRobin, nil, nil, obs, nil)
	}},
}

func roundRobin(v types.View) types.NodeID { return types.NodeID(v % 4) }

// proc is one processor under test.
type proc struct {
	*testing.T
	u        *baselinetest.Unit
	e        replica.Engine
	produced int // OnQCProduced calls
}

func (p *proc) OnQCSeen(*msg.QC, types.Time)     {}
func (p *proc) OnQCProduced(*msg.QC, types.Time) { p.produced++ }

func start(t *testing.T, mk makeEngine, id types.NodeID) *proc {
	p := &proc{T: t, u: baselinetest.NewUnit(id, 0)}
	p.e = mk(p.u, p)
	return p
}

// lead enters view v and starts leading it, returning the one proposal
// the processor must have broadcast.
func (p *proc) lead(v types.View, deadline types.Time) *msg.Proposal {
	p.Helper()
	p.e.EnterView(v)
	p.e.LeaderStart(v, deadline)
	if n := p.u.EP.CountBcast(msg.KindProposal); n != 1 {
		p.Fatalf("leader of view %d broadcast %d proposals, want 1", v, n)
	}
	return p.u.EP.Bcasts[0].(*msg.Proposal)
}

// vote delivers signer's vote for (v, hash) as if sent by from.
func (p *proc) vote(from, signer types.NodeID, v types.View, hash [32]byte) {
	sig := p.u.Sign(signer, msg.VoteStatement(v, hash))
	p.e.Handle(from, &msg.Vote{V: v, BlockHash: hash, Sig: sig})
}

// wantQCs asserts how many QCs the processor has produced so far: each is
// one broadcast and one OnQCProduced event.
func (p *proc) wantQCs(n int, when string) {
	p.Helper()
	if got := p.u.EP.CountBcast(msg.KindQC); got != n || p.produced != n {
		p.Fatalf("%s: %d QCs broadcast, %d produced events, want %d", when, got, p.produced, n)
	}
}

// wantVotes asserts how many votes the processor has sent, all to node 0.
func (p *proc) wantVotes(n int, when string) {
	p.Helper()
	if len(p.u.EP.Sends) != n {
		p.Fatalf("%s: sent %d messages, want %d votes", when, len(p.u.EP.Sends), n)
	}
	for _, s := range p.u.EP.Sends {
		if v, ok := s.M.(*msg.Vote); !ok || s.To != 0 || v.Sig.Signer != p.u.EP.Node {
			p.Fatalf("%s: sent %T to %d, want own vote to the leader", when, s.M, s.To)
		}
	}
}

var roundContract = []struct {
	name string
	run  func(t *testing.T, mk makeEngine)
}{
	{"QC forms once, at the 2f+1st distinct vote", func(t *testing.T, mk makeEngine) {
		p := start(t, mk, 0)
		prop := p.lead(0, types.TimeInf)
		for _, signer := range []types.NodeID{1, 1, 1, 2, 2} {
			p.vote(signer, signer, 0, prop.Hash)
		}
		p.wantQCs(0, "two distinct signers, repeated")
		p.vote(3, 3, 0, prop.Hash)
		p.wantQCs(1, "third distinct signer")
		qc := p.u.EP.Bcasts[1].(*msg.QC)
		if qc.V != 0 || qc.BlockHash != prop.Hash || len(qc.Agg.Signers) != p.u.Cfg.Quorum() {
			t.Fatalf("QC %+v does not certify the proposal with 2f+1 signers", qc)
		}
		p.vote(0, 0, 0, prop.Hash)
		p.wantQCs(1, "a vote after the QC formed")
	}},
	{"vote relayed by another sender is ignored", func(t *testing.T, mk makeEngine) {
		p := start(t, mk, 0)
		prop := p.lead(0, types.TimeInf)
		for signer := types.NodeID(1); signer <= 3; signer++ {
			p.vote(signer%3+1, signer, 0, prop.Hash)
		}
		p.wantQCs(0, "2f+1 valid votes, none from its signer")
	}},
	{"vote for a view not being led is ignored", func(t *testing.T, mk makeEngine) {
		p := start(t, mk, 0)
		prop := p.lead(0, types.TimeInf)
		for signer := types.NodeID(1); signer <= 3; signer++ {
			p.vote(signer, signer, 1, prop.Hash)
		}
		p.wantQCs(0, "2f+1 votes for view 1 at the leader of view 0")
	}},
	{"invalid vote does not take its signer's slot", func(t *testing.T, mk makeEngine) {
		p := start(t, mk, 0)
		prop := p.lead(0, types.TimeInf)
		sig := p.u.Sign(3, msg.VoteStatement(1, prop.Hash)) // signs another view
		p.e.Handle(3, &msg.Vote{V: 0, BlockHash: prop.Hash, Sig: sig})
		p.vote(1, 1, 0, prop.Hash)
		p.vote(2, 2, 0, prop.Hash)
		p.wantQCs(0, "two valid votes and an invalid one")
		p.vote(3, 3, 0, prop.Hash)
		p.wantQCs(1, "the third signer's valid vote")
	}},
	{"no QC after the pacemaker's deadline", func(t *testing.T, mk makeEngine) {
		p := start(t, mk, 0)
		prop := p.lead(0, types.Time(0).Add(10*time.Millisecond))
		p.vote(1, 1, 0, prop.Hash)
		p.vote(2, 2, 0, prop.Hash)
		p.u.Sched.RunFor(20 * time.Millisecond)
		p.vote(3, 3, 0, prop.Hash)
		p.vote(0, 0, 0, prop.Hash)
		p.wantQCs(0, "quorum reached 10ms past the deadline")
	}},
	{"second LeaderStart sends no second proposal", func(t *testing.T, mk makeEngine) {
		p := start(t, mk, 0)
		prop := p.lead(0, types.TimeInf)
		p.vote(1, 1, 0, prop.Hash)
		p.e.LeaderStart(0, types.TimeInf)
		p.e.LeaderStart(1, types.TimeInf) // led by node 1
		if n := p.u.EP.CountBcast(msg.KindProposal); n != 1 {
			t.Fatalf("%d proposals broadcast, want 1", n)
		}
		p.vote(2, 2, 0, prop.Hash)
		p.vote(3, 3, 0, prop.Hash)
		p.wantQCs(1, "votes collected across the repeated LeaderStart")
	}},
	{"one vote per view, proposal after EnterView", func(t *testing.T, mk makeEngine) {
		prop := start(t, mk, 0).lead(0, types.TimeInf)
		p := start(t, mk, 1)
		p.e.EnterView(0)
		p.wantVotes(0, "in view 0 without a proposal")
		p.e.Handle(0, prop)
		p.e.Handle(0, prop)
		p.e.EnterView(0)
		p.wantVotes(1, "proposal delivered twice")
	}},
	{"one vote per view, proposal before EnterView", func(t *testing.T, mk makeEngine) {
		prop := start(t, mk, 0).lead(0, types.TimeInf)
		p := start(t, mk, 1)
		p.e.Handle(0, prop)
		p.wantVotes(0, "proposal for a view not entered yet")
		p.e.EnterView(0)
		p.e.Handle(0, prop)
		p.e.EnterView(0)
		p.wantVotes(1, "view entered after the proposal")
	}},
	{"proposal not from its view's leader is ignored", func(t *testing.T, mk makeEngine) {
		prop := start(t, mk, 0).lead(0, types.TimeInf)
		p := start(t, mk, 1)
		p.e.EnterView(0)
		p.e.Handle(2, prop) // relayed by a non-leader
		usurped := *prop
		usurped.Leader = 2
		p.e.Handle(2, &usurped) // names its sender, who does not lead view 0
		p.wantVotes(0, "proposals from node 2 in node 0's view")
		p.e.Handle(0, prop)
		p.wantVotes(1, "the leader's proposal, after the forged ones")
	}},
}

func TestRoundContract(t *testing.T) {
	for _, eng := range engines {
		for _, c := range roundContract {
			eng, c := eng, c
			t.Run(eng.name+"/"+c.name, func(t *testing.T) { c.run(t, eng.make) })
		}
	}
}
