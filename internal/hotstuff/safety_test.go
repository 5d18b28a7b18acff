package hotstuff

import (
	"slices"
	"testing"
	"time"

	"lumiere/internal/baseline/baselinetest"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/sim"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
)

// TestHiddenCertificateScheduleStaysSafe drives the n = 4 schedule of
// ROADMAP item 33 by hand through Core.Handle, under the default
// three-chain rule. A (0), B (1) and C (2) are honest, Z (3) is
// Byzantine, and view v is led by v mod 4:
//   - b₀, b₁ and b₂ are proposed at views 0–2, and A receives neither
//     b₁ nor b₂, as asynchrony before GST allows;
//   - Z certifies b₂ and shows the QC to B alone; C saw only QC(b₁);
//   - A leads view 4 from its highQC, QC(b₀), proposing c beside b₁,
//     and A, C and Z certify c;
//   - B leads view 5 from QC(c), and A, C and Z certify its block d.
//
// B commits only b₀, and no two honest cores commit different blocks at
// one height. The two-chain rule commits b₁ at B and c at C on this
// schedule (item 33), so it has no case here.
func TestHiddenCertificateScheduleStaysSafe(t *testing.T) {
	cfg := types.NewConfig(1, 100*time.Millisecond)
	suite := crypto.NewSimSuite(cfg.N, 2)
	leader := func(v types.View) types.NodeID { return types.NodeID(v % types.View(cfg.N)) }
	const a, b, c, z = 0, 1, 2, 3
	cores := make([]*Core, 3)
	eps := make([]*baselinetest.Endpoint, 3)
	for i := range cores {
		// The endpoints record instead of delivering: every delivery
		// below is the schedule's.
		eps[i] = &baselinetest.Endpoint{Node: types.NodeID(i)}
		cores[i] = New(Config{Base: cfg}, eps[i], sim.New(1), suite, leader, nil, statemachine.NewKV(), nil, nil)
		cores[i].EnterView(0)
	}
	enter := func(v types.View, who ...int) {
		for _, i := range who {
			cores[i].EnterView(v)
		}
	}
	// propose has leader i (an honest core, in view v) propose and
	// delivers its proposal to who.
	propose := func(i int, v types.View, who ...int) *Block {
		cores[i].LeaderStart(v, types.TimeInf)
		p := eps[i].Bcasts[len(eps[i].Bcasts)-1].(*msg.Proposal)
		for _, j := range who {
			cores[j].Handle(types.NodeID(i), p)
		}
		return cores[i].blocks[p.Hash]
	}
	// certify builds blk's QC from the signers' votes and delivers it,
	// from its leader, to who.
	certify := func(blk *Block, signers []types.NodeID, who ...int) {
		stmt := msg.VoteStatement(blk.View, blk.HashOf())
		sigs := make([]crypto.Signature, len(signers))
		for k, s := range signers {
			sigs[k] = suite.SignerFor(s).Sign(stmt)
		}
		agg, err := suite.Aggregate(stmt, sigs)
		if err != nil {
			t.Fatal(err)
		}
		qc := &msg.QC{V: blk.View, BlockHash: blk.HashOf(), Agg: agg}
		for _, j := range who {
			cores[j].Handle(leader(blk.View), qc)
		}
	}
	voted := func(i int, v types.View) bool {
		return slices.ContainsFunc(eps[i].Sends, func(s baselinetest.Sent) bool {
			vote, ok := s.M.(*msg.Vote)
			return ok && vote.V == v
		})
	}

	b0 := propose(a, 0, a, b, c)
	certify(b0, []types.NodeID{a, b, c}, a, b, c)
	enter(1, b, c)
	b1 := propose(b, 1, b, c)
	certify(b1, []types.NodeID{b, c, z}, b, c)
	enter(2, b, c)
	b2 := propose(c, 2, b, c)
	certify(b2, []types.NodeID{b, c, z}, b) // Z shows QC(b₂) to B alone
	if got := cores[b].CommittedHashes(); !slices.Equal(got, []Hash{b0.HashOf()}) {
		t.Fatalf("B after QC(b₂) committed %d blocks, want b₀ alone", len(got))
	}

	enter(4, a, b, c)
	blkC := propose(a, 4, a, b, c)
	if blkC.Parent != b0.HashOf() || !voted(c, 4) || voted(b, 4) {
		t.Fatalf("view 4: c extends b₀ %v, C voted %v, B voted %v; want true, true, false (B is locked on b₁)",
			blkC.Parent == b0.HashOf(), voted(c, 4), voted(b, 4))
	}
	certify(blkC, []types.NodeID{a, c, z}, a, b, c)
	enter(5, a, b, c)
	d := propose(b, 5, a, b, c)
	if d.Parent != blkC.HashOf() {
		t.Fatal("B did not lead view 5 from QC(c)")
	}
	certify(d, []types.NodeID{a, c, z}, a, b, c)

	if got := cores[b].CommittedHashes(); !slices.Equal(got, []Hash{b0.HashOf()}) {
		t.Errorf("B committed %d blocks, want b₀ alone", len(got))
	}
	for i := range cores {
		for j := i + 1; j < len(cores); j++ {
			li, lj := cores[i].CommittedHashes(), cores[j].CommittedHashes()
			for h := 0; h < min(len(li), len(lj)); h++ {
				if li[h] != lj[h] {
					t.Errorf("cores %d and %d commit different blocks at height %d", i, j, h)
				}
			}
		}
	}
}
