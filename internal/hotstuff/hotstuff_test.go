package hotstuff

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"

	"lumiere/internal/allocgate"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/sim"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
)

// rig wires n HotStuff cores over a simulated network with a trivial
// chaining pacemaker: every observed QC enters the next view and starts
// its leader immediately (pure responsiveness, no clocks).
type rig struct {
	sched *sim.Scheduler
	net   *network.Net
	cores []*Core
	eps   []*voteLog
	kvs   []*statemachine.KV
	cfg   types.Config
}

// voteLog is a node's endpoint, recording the view of every vote it sends
// and the recipient of every request it sends.
type voteLog struct {
	network.Endpoint
	views []types.View
	reqTo []types.NodeID
}

func (e *voteLog) Send(to types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.Vote:
		e.views = append(e.views, mm.V)
	case *msg.Request:
		e.reqTo = append(e.reqTo, to)
	}
	e.Endpoint.Send(to, m)
}

// votes counts the votes node i has sent for view v.
func (r *rig) votes(i int, v types.View) (n int) {
	for _, w := range r.eps[i].views {
		if w == v {
			n++
		}
	}
	return n
}

func newRig(t *testing.T, f int, delay time.Duration, twoPhase bool) *rig {
	t.Helper()
	cfg := types.NewConfig(f, 100*time.Millisecond)
	r := &rig{sched: sim.New(1), cfg: cfg}
	net := network.NewNet(r.sched, cfg, 0, network.Fixed{D: delay})
	r.net = net
	suite := crypto.NewSimSuite(cfg.N, 2)
	leader := func(v types.View) types.NodeID { return types.NodeID(v % types.View(cfg.N)) }
	r.cores = make([]*Core, cfg.N)
	r.eps = make([]*voteLog, cfg.N)
	r.kvs = make([]*statemachine.KV, cfg.N)
	for i := 0; i < cfg.N; i++ {
		i := i
		r.eps[i] = &voteLog{Endpoint: net.Attach(types.NodeID(i), network.HandlerFunc(func(from types.NodeID, m msg.Message) {
			r.cores[i].Handle(from, m)
		}))}
		r.kvs[i] = statemachine.NewKV()
		r.cores[i] = New(Config{Base: cfg, TwoPhase: twoPhase}, r.eps[i], r.sched, suite, leader,
			func(qc *msg.QC) {
				next := qc.V + 1
				r.cores[i].EnterView(next)
				r.cores[i].LeaderStart(next, types.TimeInf)
			}, r.kvs[i], nil, nil)
	}
	return r
}

// qcFor certifies block b with the rig's keys (a fresh suite on the
// rig's seed), signed by the first 2f+1 processors.
func (r *rig) qcFor(t *testing.T, b *Block) *msg.QC {
	t.Helper()
	suite := crypto.NewSimSuite(r.cfg.N, 2)
	h := b.HashOf()
	var sigs []crypto.Signature
	for i := 0; i < r.cfg.Quorum(); i++ {
		sigs = append(sigs, suite.SignerFor(types.NodeID(i)).Sign(msg.VoteStatement(b.View, h)))
	}
	agg, err := suite.Aggregate(msg.VoteStatement(b.View, h), sigs)
	if err != nil {
		t.Fatal(err)
	}
	return &msg.QC{V: b.View, BlockHash: h, Agg: agg}
}

func (r *rig) start() {
	for _, c := range r.cores {
		c.EnterView(0)
	}
	r.cores[0].LeaderStart(0, types.TimeInf)
}

func TestChainCommitsAndExecutes(t *testing.T) {
	r := newRig(t, 1, time.Millisecond, false)
	for i := 0; i < 10; i++ {
		r.cores[0].Submit([]byte(fmt.Sprintf("SET k%d v%d", i, i)))
	}
	r.start()
	r.sched.RunFor(time.Second)
	for i, c := range r.cores {
		if c.CommittedCount() < 10 {
			t.Fatalf("core %d committed %d blocks", i, c.CommittedCount())
		}
	}
	// Commands submitted at node 0 executed everywhere (node 0 was the
	// first leader and batched them).
	for i, kv := range r.kvs {
		if v, ok := kv.Get("k9"); !ok || v != "v9" {
			t.Fatalf("kv %d missing k9 (have %d keys)", i, kv.Len())
		}
	}
	// Logs identical.
	ref := r.cores[0].CommittedHashes()
	for i := 1; i < len(r.cores); i++ {
		l := r.cores[i].CommittedHashes()
		n := len(ref)
		if len(l) < n {
			n = len(l)
		}
		for j := 0; j < n; j++ {
			if l[j] != ref[j] {
				t.Fatalf("logs diverge at %d", j)
			}
		}
	}
	// Nobody modified a sealed block: every committed block's fields, and
	// the shared proposal bytes the payloads alias, still encode to its hash.
	for i, c := range r.cores {
		for _, h := range c.committed {
			if b := c.blocks[h]; b.HashOf() != h || sha256.Sum256(encodeFields(b)) != h {
				t.Fatalf("core %d: committed block of view %d no longer encodes to its hash", i, b.View)
			}
		}
	}
}

func TestCommitLagThreeVsTwoChain(t *testing.T) {
	run := func(twoPhase bool) (highView types.View, committed int) {
		r := newRig(t, 1, time.Millisecond, twoPhase)
		r.start()
		r.sched.RunFor(200 * time.Millisecond)
		return r.cores[0].HighView(), r.cores[0].CommittedCount()
	}
	h3, c3 := run(false)
	h2, c2 := run(true)
	// With a QC for view v, the three-chain rule has executed views
	// 0..v-2 (v-1 blocks) and the two-chain rule 0..v-1 (v blocks).
	if int(h3)-c3 != 1 {
		t.Fatalf("three-chain: highView=%d committed=%d, want lag 1 block", h3, c3)
	}
	if int(h2)-c2 != 0 {
		t.Fatalf("two-chain: highView=%d committed=%d, want lag 0 blocks", h2, c2)
	}
}

func TestVoteRefusesNonExtendingOldJustify(t *testing.T) {
	r := newRig(t, 1, time.Millisecond, false)
	r.start()
	r.sched.RunFor(time.Second) // locks well above genesis
	core := r.cores[1]
	locked := core.lockedQC
	if locked.V < 1 {
		t.Fatal("no lock formed")
	}
	// A proposal extending genesis with the genesis justify: violates
	// the safety rule (doesn't extend the lock, justify not newer).
	v := core.View() + 1
	core.EnterView(v)
	block := &Block{View: v, Parent: GenesisHash}
	genesisQC := &msg.QC{V: types.NoView, BlockHash: GenesisHash}
	core.handleProposal(types.NodeID(v%types.View(r.cfg.N)), &msg.Proposal{
		V:       v,
		Leader:  types.NodeID(v % types.View(r.cfg.N)),
		Justify: genesisQC,
		Block:   block.Encode(),
		Hash:    block.HashOf(),
	})
	if r.votes(1, v) != 0 {
		t.Fatal("voted for a proposal violating the safety rule")
	}
}

func TestLateProposalStoredButNotVoted(t *testing.T) {
	r := newRig(t, 1, time.Millisecond, false)
	r.start()
	r.sched.RunFor(100 * time.Millisecond)
	core := r.cores[1]
	// Craft a valid proposal for an old view extending genesis (as the
	// view-0 leader legitimately did); it must be stored, not voted.
	old := &Block{View: 0, Parent: GenesisHash, Cmds: []Command{{ID: 42}}}
	genesisQC := &msg.QC{V: types.NoView, BlockHash: GenesisHash}
	before := r.votes(1, 0)
	core.handleProposal(0, &msg.Proposal{
		V: 0, Leader: 0, Justify: genesisQC, Block: old.Encode(), Hash: old.HashOf(),
	})
	if _, ok := core.blocks[old.HashOf()]; !ok {
		t.Fatal("late proposal's block not stored")
	}
	if r.votes(1, 0) != before {
		t.Fatal("voted for a stale view")
	}
}

// TestPendingListsSortedAndDeduplicated: the pending lists stay in
// (view, hash) order whatever order blocks are added in, hold each hash
// once, and drop by hash.
func TestPendingListsSortedAndDeduplicated(t *testing.T) {
	var blocks []*Block
	for v := types.View(3); v >= 0; v-- {
		for p := byte(0); p < 3; p++ {
			blocks = append(blocks, &Block{View: v, Parent: Hash{p}})
		}
	}
	var list []*Block
	for _, b := range blocks {
		list = addPending(list, b)
		list = addPending(list, &Block{View: b.View, Parent: b.Parent})
	}
	if len(list) != len(blocks) {
		t.Fatalf("%d entries for %d distinct blocks", len(list), len(blocks))
	}
	if !slices.IsSortedFunc(list, cmpPending) {
		t.Fatal("pending list not in (view, hash) order")
	}
	for _, b := range blocks {
		list = dropPending(list, &Block{View: b.View, Parent: b.Parent})
		list = dropPending(list, b)
	}
	if len(list) != 0 {
		t.Fatalf("%d entries left after dropping every block", len(list))
	}
}

func TestPendingExecDefersUntilAncestorArrives(t *testing.T) {
	r := newRig(t, 1, time.Millisecond, false)
	core := r.cores[0]
	// Build a private 3-chain b0←b1←b2 of consecutive views with a QC
	// for b2, but withhold b0 from the core.
	qcFor := func(b *Block) *msg.QC { return r.qcFor(t, b) }
	b0 := &Block{View: 0, Parent: GenesisHash, Cmds: []Command{{ID: 7, Payload: []byte("SET x 1")}}}
	b1 := &Block{View: 1, Parent: b0.HashOf()}
	b2 := &Block{View: 2, Parent: b1.HashOf()}
	core.blocks[b1.HashOf()] = b1
	core.blocks[b2.HashOf()] = b2
	core.qcByHash[b0.HashOf()] = qcFor(b0)
	core.qcByHash[b1.HashOf()] = qcFor(b1)
	core.observeQC(qcFor(b2))
	if core.CommittedCount() != 0 {
		t.Fatal("committed a chain with a missing ancestor")
	}
	if len(core.pendingExec)+len(core.pendingCommit) == 0 {
		t.Fatal("execution not deferred")
	}
	// The missing ancestor arrives (late proposal path).
	core.blocks[b0.HashOf()] = b0
	core.retryPending()
	if core.CommittedCount() != 1 {
		t.Fatalf("deferred commit not executed: %d", core.CommittedCount())
	}
	if v, ok := r.kvs[0].Get("x"); !ok || v != "1" {
		t.Fatal("deferred command not applied")
	}
}

func TestLeaderDeadlineDiscipline(t *testing.T) {
	r := newRig(t, 1, 10*time.Millisecond, false)
	for _, c := range r.cores {
		c.EnterView(0)
	}
	// Deadline in the past relative to vote arrival (~2δ = 20ms).
	r.cores[0].LeaderStart(0, r.sched.Now().Add(5*time.Millisecond))
	r.sched.RunFor(time.Second)
	if r.cores[0].CommittedCount() != 0 || r.cores[0].HighView() >= 0 {
		t.Fatal("leader produced a QC past its deadline")
	}
}

func TestMempoolDedupeAndDrainOnCommit(t *testing.T) {
	r := newRig(t, 1, time.Millisecond, false)
	core := r.cores[0]
	core.Handle(1, &msg.Request{ID: 5, Payload: []byte("SET a 1")})
	core.Handle(2, &msg.Request{ID: 5, Payload: []byte("SET a 1")}) // duplicate
	if core.mempoolLen() != 1 {
		t.Fatalf("mempool = %d, want deduped 1", core.mempoolLen())
	}
	r.start()
	r.sched.RunFor(time.Second)
	if core.mempoolLen() != 0 {
		t.Fatalf("mempool not drained after commit: %d", core.mempoolLen())
	}
	// Re-submitting an applied command is a no-op.
	core.Handle(1, &msg.Request{ID: 5, Payload: []byte("SET a 1")})
	if core.mempoolLen() != 0 {
		t.Fatal("applied command re-entered the mempool")
	}
}

// TestSubmitForwardsToNextLeaders: a replica's Submit sends its request to
// the distinct leaders of the next two views, never to itself and never
// more than twice, and the next leader proposes the command.
func TestSubmitForwardsToNextLeaders(t *testing.T) {
	r := newRig(t, 1, time.Millisecond, false)
	for _, c := range r.cores {
		c.EnterView(5) // leaders: view 5 → 1, 6 → 2, 7 → 3
	}
	idLeader := r.cores[1].Submit([]byte("SET a 1")) // leads view 5 only
	idNext := r.cores[2].Submit([]byte("SET b 2"))   // leads view 6
	if got := r.eps[1].reqTo; !slices.Equal(got, []types.NodeID{2, 3}) {
		t.Fatalf("view-5 leader sent its request to %v, want [2 3]", got)
	}
	if got := r.eps[2].reqTo; !slices.Equal(got, []types.NodeID{3}) {
		t.Fatalf("view-6 leader sent its request to %v, want [3] (never itself)", got)
	}
	// Two views with one leader get one request.
	r.cores[0].Leader = func(types.View) types.NodeID { return 3 }
	r.cores[0].Submit([]byte("SET c 3"))
	if got := r.eps[0].reqTo; !slices.Equal(got, []types.NodeID{3}) {
		t.Fatalf("request sent to %v, want once to [3]", got)
	}

	r.sched.RunFor(10 * time.Millisecond) // deliver the requests
	if n := r.cores[3].mempoolLen(); n != 3 {
		t.Fatalf("core 3, next leader of every submitter, holds %d commands, want 3", n)
	}
	r.cores[2].LeaderStart(6, types.TimeInf)
	var proposed *Block
	for _, b := range r.cores[2].blocks {
		if b.View == 6 {
			proposed = b
		}
	}
	if proposed == nil {
		t.Fatal("view-6 leader proposed nothing")
	}
	var ids []uint64
	for _, cmd := range proposed.Cmds {
		ids = append(ids, cmd.ID)
	}
	if !slices.Equal(ids, []uint64{idNext, idLeader}) {
		t.Fatalf("view-6 proposal carries %v, want [%d %d]", ids, idNext, idLeader)
	}
	if Submitter(idLeader) != 1 || Submitter(idNext) != 2 {
		t.Fatalf("IDs %x, %x outside their submitters' namespaces", idLeader, idNext)
	}
}

// TestResyncResumesRevivedLeader: node 3 is down while the others certify
// views 0-2, so the chain stalls at its view 3 and the cluster falls
// quiet. Back up, it hears nothing until it asks: Resync brings it the
// others' highest certified block, from which it leads view 3 and the
// chain commits again. Without Resync its view-3 proposal extends its
// stale genesis highQC, and the locked replicas refuse it.
func TestResyncResumesRevivedLeader(t *testing.T) {
	for _, resync := range []bool{false, true} {
		r := newRig(t, 1, time.Millisecond, false)
		r.net.Kill(3)
		r.start()
		r.sched.RunFor(time.Second)
		stalled := r.cores[0].CommittedCount()
		if r.cores[0].HighView() < 1 || r.cores[3].HighView() != types.NoView {
			t.Fatalf("before revival: highQC views %d (live) and %d (down)", r.cores[0].HighView(), r.cores[3].HighView())
		}
		r.net.Revive(3)
		if resync {
			r.cores[3].Resync() // the rig's pacemaker leads view 3 on the QC it learns
		} else {
			r.cores[3].EnterView(3)
			r.cores[3].LeaderStart(3, types.TimeInf)
		}
		r.sched.RunFor(time.Second)
		if resumed := r.cores[0].CommittedCount() > stalled; resumed != resync {
			t.Fatalf("resync=%v: %d blocks committed before node 3 came back, %d after", resync, stalled, r.cores[0].CommittedCount())
		}
	}
}

// TestForgedQCRejected: the engine is the node's only verifier of QCs, so
// a forged one must stop here — highQC does not move and the pacemaker's
// onQC never runs.
func TestForgedQCRejected(t *testing.T) {
	r := newRig(t, 1, time.Millisecond, false)
	core := r.cores[0]
	routed := 0
	core.onQC = func(*msg.QC) { routed++ }
	var h Hash
	core.observeQC(&msg.QC{V: 3, BlockHash: h}) // empty aggregate
	// A full-size certificate with one component flipped, off the network.
	b := &Block{View: 0, Parent: GenesisHash}
	valid := r.qcFor(t, b)
	forged := &msg.QC{V: 0, BlockHash: valid.BlockHash, Agg: valid.Agg.Clone()}
	forged.Agg.Bytes[0][0] ^= 1
	core.Handle(1, forged)
	core.Handle(1, &msg.BlockResp{Block: b.Encode(), Cert: forged, FromRaw: 1})
	if core.HighView() >= 0 || routed != 0 {
		t.Fatalf("forged QC accepted: highView=%d, routed to pacemaker %d times", core.HighView(), routed)
	}
	core.Handle(1, valid)
	if core.HighView() != 0 || routed != 1 {
		t.Fatalf("valid QC: highView=%d, routed %d times, want 0 and 1", core.HighView(), routed)
	}
}

// TestCheapChecksBeforeDecode: a response for a block already held — every
// fetch is a broadcast, so all but the first answer is one — and a proposal
// without a Justify are dropped before the block is decoded and hashed.
// Decoding allocates (the block, or the error), so "no decode" is "no
// allocation"; state is compared around the second response as well.
func TestCheapChecksBeforeDecode(t *testing.T) {
	r := newRig(t, 1, time.Millisecond, false)
	core := r.cores[0]
	b := &Block{View: 0, Parent: GenesisHash, Cmds: []Command{{ID: 7, Payload: []byte("SET x 1")}}}
	resp := &msg.BlockResp{Block: b.Encode(), Cert: r.qcFor(t, b), FromRaw: 1}
	core.fetchAsked[b.HashOf()] = 0
	core.Handle(1, resp)
	if core.blocks[b.HashOf()] == nil || len(core.fetchAsked) != 0 || core.HighView() != 0 {
		t.Fatalf("first response not taken: %d blocks, %d fetches open, highView %d",
			len(core.blocks), len(core.fetchAsked), core.HighView())
	}
	stored, blocks, committed := core.blocks[b.HashOf()], len(core.blocks), core.CommittedCount()
	if n := allocgate.PerRun(t, 10, func() { core.Handle(2, resp) }); n != 0 {
		t.Errorf("repeated BlockResp: %v allocations, want 0 (dropped before the decode)", n)
	}
	if core.blocks[b.HashOf()] != stored || len(core.blocks) != blocks ||
		len(core.fetchAsked) != 0 || core.CommittedCount() != committed {
		t.Fatal("repeated BlockResp changed state")
	}

	lead := types.NodeID(1)
	p := &msg.Proposal{V: 1, Leader: lead, Block: []byte{1, 2, 3}}
	if n := allocgate.PerRun(t, 10, func() { core.Handle(lead, p) }); n != 0 {
		t.Errorf("proposal without a Justify: %v allocations, want 0 (dropped before the decode)", n)
	}
	if len(core.blocks) != blocks {
		t.Fatal("proposal without a Justify changed state")
	}
}

// TestKnownJustifyNotRechecked: once (view, hash) is certified locally — the
// QC was broadcast before the next proposal carried it — a proposal naming
// it as Justify is processed identically whatever its Agg bytes, and the
// second certificate changes no state: the original QC stays in place.
func TestKnownJustifyNotRechecked(t *testing.T) {
	type outcome struct {
		voted, sameHigh, sameKnown bool
		high, locked               types.View
		blocks, committed          int
	}
	run := func(agg func(valid crypto.Aggregate) crypto.Aggregate) outcome {
		r := newRig(t, 1, time.Millisecond, false)
		r.start()
		r.sched.RunFor(100 * time.Millisecond)
		core := r.cores[1]
		hq := core.highQC
		if hq.V < 1 || core.qcByHash[hq.BlockHash] != hq {
			t.Fatalf("no certified high QC to extend (view %d)", hq.V)
		}
		v := core.View() + 1
		lead := types.NodeID(v % types.View(r.cfg.N))
		core.EnterView(v)
		block := &Block{View: v, Parent: hq.BlockHash}
		core.handleProposal(lead, &msg.Proposal{
			V: v, Leader: lead, Block: block.Encode(), Hash: block.HashOf(),
			Justify: &msg.QC{V: hq.V, BlockHash: hq.BlockHash, Agg: agg(hq.Agg)},
		})
		return outcome{
			voted:    r.votes(1, v) == 1,
			sameHigh: core.highQC == hq, sameKnown: core.qcByHash[hq.BlockHash] == hq,
			high: core.highQC.V, locked: core.lockedQC.V,
			blocks: len(core.blocks), committed: core.CommittedCount(),
		}
	}
	want := run(func(valid crypto.Aggregate) crypto.Aggregate { return valid })
	if !want.voted || !want.sameHigh || !want.sameKnown {
		t.Fatalf("proposal with the valid known Justify: %+v", want)
	}
	for name, agg := range map[string]func(crypto.Aggregate) crypto.Aggregate{
		"re-assembled": func(valid crypto.Aggregate) crypto.Aggregate { return valid.Clone() },
		"forged component": func(valid crypto.Aggregate) crypto.Aggregate {
			c := valid.Clone()
			c.Bytes[0][0] ^= 1
			return c
		},
		"empty": func(crypto.Aggregate) crypto.Aggregate { return crypto.Aggregate{} },
	} {
		if got := run(agg); got != want {
			t.Errorf("%s Agg: %+v, want %+v", name, got, want)
		}
	}
	// The shortcut is for known facts only: the same bytes on a
	// (view, hash) this node has not seen certified are rejected.
	r := newRig(t, 1, time.Millisecond, false)
	core := r.cores[1]
	core.EnterView(1)
	b0 := &Block{View: 0, Parent: GenesisHash}
	b1 := &Block{View: 1, Parent: b0.HashOf()}
	core.handleProposal(1, &msg.Proposal{V: 1, Leader: 1, Block: b1.Encode(), Hash: b1.HashOf(),
		Justify: &msg.QC{V: 0, BlockHash: b0.HashOf()}})
	if len(core.blocks) != 1 || r.votes(1, 1) != 0 {
		t.Fatal("proposal with an uncertified, unverifiable Justify accepted")
	}
}
