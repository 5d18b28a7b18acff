package viewcore

import (
	"testing"
	"time"

	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// rig wires n view cores over a simulated network with round-robin
// leaders, without any pacemaker: tests drive EnterView/LeaderStart
// directly.
type rig struct {
	sched    *sim.Scheduler
	net      *network.Net
	cores    []*Core
	qcs      [][]types.View // QCs observed per node (via onQC)
	produced []types.View   // QCs produced (with leader identity implied)
	cfg      types.Config
}

type prodObs struct {
	r  *rig
	id types.NodeID
}

func (o prodObs) OnQCSeen(qc *msg.QC, _ types.Time)     {}
func (o prodObs) OnQCProduced(qc *msg.QC, _ types.Time) { o.r.produced = append(o.r.produced, qc.V) }

func newRig(t *testing.T, f int, delay time.Duration) *rig {
	t.Helper()
	cfg := types.NewConfig(f, 100*time.Millisecond)
	r := &rig{
		sched: sim.New(1),
		cfg:   cfg,
		qcs:   make([][]types.View, cfg.N),
	}
	r.net = network.NewNet(r.sched, cfg, 0, network.Fixed{D: delay})
	suite := crypto.NewSimSuite(cfg.N, 2)
	leader := func(v types.View) types.NodeID { return types.NodeID(v % types.View(cfg.N)) }
	r.cores = make([]*Core, cfg.N)
	for i := 0; i < cfg.N; i++ {
		i := i
		var ep network.Endpoint
		ep = r.net.Attach(types.NodeID(i), network.HandlerFunc(func(from types.NodeID, m msg.Message) {
			r.cores[i].Handle(from, m)
		}))
		r.cores[i] = New(cfg, ep, r.sched, suite, leader,
			func(qc *msg.QC) { r.qcs[i] = append(r.qcs[i], qc.V) },
			prodObs{r: r, id: types.NodeID(i)})
	}
	return r
}

func (r *rig) enterAll(v types.View) {
	for _, c := range r.cores {
		c.EnterView(v)
	}
}

func TestViewCompletesWithinXDelta(t *testing.T) {
	delta := 10 * time.Millisecond
	r := newRig(t, 1, delta)
	r.enterAll(0)
	r.cores[0].LeaderStart(0, types.TimeInf)
	// (⋄1) with x = 3: all honest processors receive the QC within 3δ.
	r.sched.RunFor(3 * delta)
	for i, qcs := range r.qcs {
		if len(qcs) != 1 || qcs[0] != 0 {
			t.Fatalf("node %d observed %v, want [0] within 3δ", i, qcs)
		}
	}
	if len(r.produced) != 1 {
		t.Fatalf("produced = %v", r.produced)
	}
}

func TestQCRequiresQuorumInView(t *testing.T) {
	// (⋄2): if only 2f processors are in the view, no QC forms.
	r := newRig(t, 1, time.Millisecond)
	for i := 0; i < 2; i++ { // nodes 0,1 only (need 3 = 2f+1)
		r.cores[i].EnterView(0)
	}
	r.cores[0].LeaderStart(0, types.TimeInf)
	r.sched.RunFor(time.Second)
	if len(r.produced) != 0 {
		t.Fatal("QC formed without quorum in view")
	}
	// Third node enters late: QC forms then (its buffered proposal).
	r.cores[2].EnterView(0)
	r.sched.RunFor(time.Second)
	if len(r.produced) != 1 {
		t.Fatal("QC did not form after quorum assembled")
	}
}

func TestLeaderDeadlineEnforced(t *testing.T) {
	delta := 10 * time.Millisecond
	r := newRig(t, 1, delta)
	r.enterAll(0)
	// Deadline in the past relative to QC formation (votes arrive at
	// 2δ): the honest leader must refrain from producing the QC.
	r.cores[0].LeaderStart(0, r.sched.Now().Add(delta))
	r.sched.RunFor(time.Second)
	if len(r.produced) != 0 {
		t.Fatal("leader produced QC past its deadline")
	}
}

func TestNonLeaderProposalIgnored(t *testing.T) {
	r := newRig(t, 1, time.Millisecond)
	r.enterAll(0)
	// Node 1 is not the leader of view 0; its LeaderStart must no-op.
	r.cores[1].LeaderStart(0, types.TimeInf)
	r.sched.RunFor(time.Second)
	if len(r.produced) != 0 {
		t.Fatal("non-leader drove a view")
	}
}

func TestForgedProposalRejected(t *testing.T) {
	r := newRig(t, 1, time.Millisecond)
	r.enterAll(0)
	// A proposal claiming to be from the leader but sent by node 2.
	r.cores[1].Handle(2, &msg.Proposal{V: 0, Leader: 0})
	r.sched.RunFor(time.Second)
	if len(r.produced) != 0 {
		t.Fatal("forged proposal accepted")
	}
}

func TestVoteDeduplication(t *testing.T) {
	r := newRig(t, 1, time.Millisecond)
	cfg := r.cfg
	suite := crypto.NewSimSuite(cfg.N, 2)
	r.enterAll(0)
	r.cores[0].LeaderStart(0, types.TimeInf)
	// Replay node 1's vote many times before others vote: the leader
	// must not count it more than once. (Votes from 0,1 alone are 2 <
	// 2f+1 = 3.)
	var blockHash [32]byte
	sig := suite.SignerFor(1).Sign(msg.VoteStatement(0, blockHash))
	for i := 0; i < 10; i++ {
		r.cores[0].Handle(1, &msg.Vote{V: 0, BlockHash: blockHash, Sig: sig})
	}
	if len(r.produced) != 0 {
		t.Fatal("duplicate votes counted toward quorum")
	}
}

func TestChainedViewsProduceSequentialQCs(t *testing.T) {
	delta := time.Millisecond
	r := newRig(t, 1, delta)
	// Drive three views back to back; a trivial pacemaker chains
	// EnterView/LeaderStart off observed QCs.
	for i := range r.cores {
		i := i
		orig := r.qcs
		_ = orig
		core := r.cores[i]
		// Rewire onQC to advance the view.
		core.onQC = func(qc *msg.QC) {
			next := qc.V + 1
			if next > 2 {
				return
			}
			core.EnterView(next)
			core.LeaderStart(next, types.TimeInf)
		}
	}
	r.enterAll(0)
	r.cores[0].LeaderStart(0, types.TimeInf)
	r.sched.RunFor(time.Second)
	if len(r.produced) != 3 {
		t.Fatalf("produced = %v, want 3 chained QCs", r.produced)
	}
}

func TestStaleViewProposalIgnored(t *testing.T) {
	r := newRig(t, 1, time.Millisecond)
	r.enterAll(5)
	r.cores[0].Handle(0, &msg.Proposal{V: 0, Leader: 0})
	r.sched.RunFor(100 * time.Millisecond)
	if len(r.produced) != 0 {
		t.Fatal("stale proposal caused activity")
	}
}

// TestForgedQCFromNetworkDropped: the engine is the node's only verifier
// of QCs, so a forged one — on its own or as a proposal's Justify — must
// stop here: the pacemaker's onQC never runs for it.
func TestForgedQCFromNetworkDropped(t *testing.T) {
	r := newRig(t, 1, time.Millisecond)
	suite := crypto.NewSimSuite(r.cfg.N, 2) // the rig's keys
	var hash [32]byte
	stmt := msg.VoteStatement(0, hash)
	var sigs []crypto.Signature
	for i := 0; i < r.cfg.Quorum(); i++ {
		sigs = append(sigs, suite.SignerFor(types.NodeID(i)).Sign(stmt))
	}
	agg, err := suite.Aggregate(stmt, sigs)
	if err != nil {
		t.Fatal(err)
	}
	forged := agg.Clone()
	forged.Bytes[0][0] ^= 1
	r.enterAll(0)
	r.cores[1].Handle(0, &msg.QC{V: 0, BlockHash: hash, Agg: forged})
	r.cores[1].Handle(1, &msg.Proposal{V: 1, Leader: 1, Justify: &msg.QC{V: 0, BlockHash: hash, Agg: forged}})
	r.cores[1].Handle(0, &msg.QC{V: 0, BlockHash: hash, Agg: agg.Truncate(r.cfg.Quorum() - 1)})
	if len(r.qcs[1]) != 0 {
		t.Fatalf("forged QC reached the pacemaker: %v", r.qcs[1])
	}
	r.cores[1].Handle(0, &msg.QC{V: 0, BlockHash: hash, Agg: agg})
	r.cores[1].Handle(0, &msg.QC{V: 0, BlockHash: hash, Agg: agg})
	if len(r.qcs[1]) != 1 || r.qcs[1][0] != 0 {
		t.Fatalf("pacemaker saw %v, want the valid QC for view 0 once", r.qcs[1])
	}
}
