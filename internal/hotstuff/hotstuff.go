package hotstuff

import (
	"bytes"
	"sort"

	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/quorum"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
	"lumiere/internal/viewcore"
)

// Config parameterizes a HotStuff core.
type Config struct {
	// Base is the execution-model configuration.
	Base types.Config
	// BatchSize caps commands per block (default 128).
	BatchSize int
	// TwoPhase commits on a two-chain of consecutive views instead of
	// a three-chain, in the spirit of HotStuff-2 (Malkhi-Nayak 2023,
	// cited in §6): one fewer round of confirmation latency. The full
	// HotStuff-2 view-change optimism is out of scope; the two-chain
	// rule is safe here because leaders always extend the highest QC
	// they know and the lock tracks the parent of the newest certified
	// block.
	TwoPhase bool
}

func (c Config) batch() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 128
}

func (c Config) chainLen() int {
	if c.TwoPhase {
		return 2
	}
	return 3
}

// CommitObserver is notified of each committed block, in commit order.
type CommitObserver func(b *Block, at types.Time)

// Core is one replica's chained HotStuff instance: viewcore's voting
// round — the pacemaker drives views, the round produces QCs (which
// double as the BVS layer's decision events) — plus the chain those QCs
// certify: each proposal carries a block extending the highest QC, the
// lock rule decides whether to vote for it, and blocks commit on
// three-chains of consecutive views. It implements replica.Engine.
type Core struct {
	viewcore.Round
	cfg      Config
	onQC     func(*msg.QC)
	sm       statemachine.StateMachine
	onCommit CommitObserver

	blocks   map[Hash]*Block
	qcByHash map[Hash]*msg.QC
	seenQC   quorum.Flags

	highQC   *msg.QC
	lockedQC *msg.QC

	// mempool is one FIFO. inPool[id] holds exactly for its live entries;
	// an executed command stays in the slice as a dead entry (applied, not
	// inPool) until it reaches the head, so dequeuing never moves the
	// entries behind it and the order of live entries never changes.
	mempool       []Command
	inPool        map[uint64]bool
	applied       map[uint64]bool
	committed     []Hash
	lastExec      types.View
	nextReqID     uint64
	pendingExec   map[Hash]*Block
	pendingCommit map[Hash]*Block
	fetchAsked    map[Hash]types.Time
}

var _ pacemaker.Driver = (*Core)(nil)

// New creates a HotStuff core. sm receives committed commands; onQC
// routes observed QCs to the pacemaker; obs and onCommit may be nil.
func New(cfg Config, ep network.Endpoint, rt clock.Runtime, suite crypto.Suite,
	leader func(types.View) types.NodeID, onQC func(*msg.QC),
	sm statemachine.StateMachine, obs viewcore.QCObserver, onCommit CommitObserver) *Core {
	genesis := &Block{View: types.NoView}
	genesisQC := &msg.QC{V: types.NoView, BlockHash: GenesisHash}
	c := &Core{
		Round:         viewcore.NewRound(cfg.Base, ep, rt, suite, leader, obs),
		cfg:           cfg,
		onQC:          onQC,
		sm:            sm,
		onCommit:      onCommit,
		blocks:        map[Hash]*Block{GenesisHash: genesis},
		qcByHash:      map[Hash]*msg.QC{GenesisHash: genesisQC},
		highQC:        genesisQC,
		lockedQC:      genesisQC,
		inPool:        make(map[uint64]bool),
		applied:       make(map[uint64]bool),
		lastExec:      types.NoView,
		nextReqID:     uint64(ep.ID())<<48 + 1,
		pendingExec:   make(map[Hash]*Block),
		pendingCommit: make(map[Hash]*Block),
		fetchAsked:    make(map[Hash]types.Time),
	}
	return c
}

// Submit queues a client command locally (examples broadcast msg.Request
// so every replica's mempool holds it; whichever leader proposes first
// wins, and execution dedupes by request ID).
func (c *Core) Submit(payload []byte) uint64 {
	id := c.nextReqID
	c.nextReqID++
	c.enqueue(Command{ID: id, Payload: payload})
	return id
}

// EnqueueCommand queues an externally generated command without the
// msg.Request envelope — the harness injector's allocation-free entry
// point (the envelope would be allocated once per replica per command).
func (c *Core) EnqueueCommand(id uint64, payload []byte) {
	c.enqueue(Command{ID: id, Payload: payload})
}

func (c *Core) enqueue(cmd Command) {
	if c.inPool[cmd.ID] || c.applied[cmd.ID] {
		return
	}
	c.inPool[cmd.ID] = true
	c.mempool = append(c.mempool, cmd)
}

// CommittedCount returns the number of committed blocks.
func (c *Core) CommittedCount() int { return len(c.committed) }

// CommittedHashes returns the commit sequence (for consistency checks).
func (c *Core) CommittedHashes() []Hash { return append([]Hash(nil), c.committed...) }

// HighView returns the view of the highest QC observed.
func (c *Core) HighView() types.View { return c.highQC.V }

// HighQC returns the highest QC observed (used by Byzantine behavior
// harnesses to craft plausible equivocating proposals).
func (c *Core) HighQC() *msg.QC { return c.highQC }

// MempoolLen returns the number of pending commands.
func (c *Core) MempoolLen() int { return len(c.inPool) }

// EnterView implements pacemaker.Driver.
func (c *Core) EnterView(v types.View) {
	p, entered := c.Enter(v)
	if !entered {
		return
	}
	c.pruneBelow(v)
	if p != nil {
		c.maybeVote(p)
	}
}

// LeaderStart implements pacemaker.Driver: propose a block extending the
// highest QC.
func (c *Core) LeaderStart(v types.View, qcDeadline types.Time) {
	if !c.Lead(v, qcDeadline) {
		return
	}
	block := &Block{View: v, Parent: c.highQC.BlockHash, Cmds: c.nextBatch()}
	hash := block.HashOf()
	c.blocks[hash] = block
	c.EP.Broadcast(&msg.Proposal{
		V:       v,
		Leader:  c.ID,
		Justify: c.highQC,
		Block:   block.Encode(),
		Hash:    hash,
	})
}

// nextBatch copies out the oldest pending commands, at most a block's
// worth, skipping entries executed since they were queued. An empty batch
// is nil (which encodes as an empty one does).
func (c *Core) nextBatch() []Command {
	n := min(len(c.inPool), c.cfg.batch())
	if n == 0 {
		return nil
	}
	batch := make([]Command, 0, n)
	for i := 0; len(batch) < n; i++ {
		if cmd := c.mempool[i]; c.inPool[cmd.ID] {
			batch = append(batch, cmd)
		}
	}
	return batch
}

// Handle implements replica.Engine.
func (c *Core) Handle(from types.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.Proposal:
		c.handleProposal(from, mm)
	case *msg.Vote:
		c.Tally(from, mm)
	case *msg.QC:
		c.observeQC(mm)
	case *msg.Request:
		c.enqueue(Command{ID: mm.ID, Payload: mm.Payload})
	case *msg.BlockFetch:
		c.handleBlockFetch(mm)
	case *msg.BlockResp:
		c.handleBlockResp(mm)
	}
}

// requestBlock broadcasts a fetch for a missing ancestor block — the
// catch-up path for replicas whose crash window swallowed proposals
// (the network model loses in-flight messages to a dead node, so the
// committed chain has real gaps after a revival). Re-asks for the same
// hash are rate-limited to one per Δ.
func (c *Core) requestBlock(h Hash) {
	now := c.RT.Now()
	if last, ok := c.fetchAsked[h]; ok && now < last+types.Time(c.Cfg.Delta) {
		return
	}
	c.fetchAsked[h] = now
	c.EP.Broadcast(&msg.BlockFetch{H: h, FromRaw: c.ID})
}

// handleBlockFetch serves a fetch request — but only for blocks whose
// certifying QC is known, so a Byzantine requester learns nothing about
// uncertified proposals and honest responders never propagate blocks
// that could still be discarded.
func (c *Core) handleBlockFetch(m *msg.BlockFetch) {
	b, ok := c.blocks[m.H]
	if !ok || b.View < 0 {
		return
	}
	qc, ok := c.qcByHash[m.H]
	if !ok || qc.V < 0 {
		return
	}
	c.EP.Send(m.FromRaw, &msg.BlockResp{Block: b.Encode(), Cert: qc, FromRaw: c.ID})
}

// handleBlockResp verifies and stores a fetched block. The response is
// self-certifying: the decoded block must hash to the QC's BlockHash and
// the QC must verify, so a forged response from a Byzantine peer is
// dropped without trusting the sender.
func (c *Core) handleBlockResp(m *msg.BlockResp) {
	if m.Cert == nil {
		return
	}
	// Every fetch is a broadcast, so up to n-1 replicas answer it: ask
	// whether the block is still wanted before paying to decode it.
	if _, known := c.blocks[m.Cert.BlockHash]; known {
		return
	}
	b, err := DecodeBlock(m.Block)
	if err != nil || b.View != m.Cert.V || b.HashOf() != m.Cert.BlockHash {
		return
	}
	if !c.verifyQC(m.Cert) {
		return
	}
	c.blocks[m.Cert.BlockHash] = b
	delete(c.fetchAsked, m.Cert.BlockHash)
	c.acceptQC(m.Cert)
	c.retryPending()
}

func (c *Core) handleProposal(from types.NodeID, p *msg.Proposal) {
	if !c.FromLeader(from, p) || p.Justify == nil {
		return
	}
	block, err := DecodeBlock(p.Block)
	if err != nil || block.View != p.V || block.HashOf() != p.Hash {
		return
	}
	if block.Parent != p.Justify.BlockHash {
		return
	}
	if !c.verifyQC(p.Justify) {
		return
	}
	// Store the block even when the proposal arrives too late to vote:
	// it may be an ancestor of a later commit, and dropping it would
	// leave a hole in the executed chain.
	if _, known := c.blocks[p.Hash]; !known {
		c.blocks[p.Hash] = block
		c.retryPending()
	}
	c.acceptQC(p.Justify) // may enter p.V, through the pacemaker
	if c.Keep(p) && p.V == c.View() {
		c.maybeVote(p)
	}
}

// maybeVote applies the chained-HotStuff safety rule: vote if the block
// extends the locked block, or its justify is newer than the lock.
func (c *Core) maybeVote(p *msg.Proposal) {
	if c.extends(p.Hash, c.lockedQC.BlockHash) || p.Justify.V > c.lockedQC.V {
		c.Vote(p)
	}
}

// extends reports whether the block with hash h has ancestor anc (walking
// at most a bounded number of known parents).
func (c *Core) extends(h, anc Hash) bool {
	cur := h
	for i := 0; i < 1024; i++ {
		if cur == anc {
			return true
		}
		b, ok := c.blocks[cur]
		if !ok || b.View < 0 {
			return false
		}
		cur = b.Parent
	}
	return false
}

// verifyQC establishes that (qc.V, qc.BlockHash) is certified. A QC naming
// a pair already in qcByHash — genesis, or a QC that was broadcast before
// the next proposal carried it as Justify — is not checked again: a second
// certificate for an established fact carries no information, whatever
// its Agg bytes.
func (c *Core) verifyQC(qc *msg.QC) bool {
	if known, ok := c.qcByHash[qc.BlockHash]; ok && known.V == qc.V {
		return true
	}
	return c.Suite.VerifyAggregate(c.Stmt.Vote(qc.V, &qc.BlockHash), qc.Agg, c.Cfg.Quorum()) == nil
}

// observeQC handles a QC that arrives on its own.
func (c *Core) observeQC(qc *msg.QC) {
	if c.verifyQC(qc) {
		c.acceptQC(qc)
	}
}

// acceptQC takes a QC its caller has verified — this node's one check of
// it, which the pacemaker relies on — once per view: it updates
// highQC/lockedQC, runs the three-chain commit rule and routes the QC to
// the pacemaker. QCs for views below the pruning bound stay forgotten:
// they cannot raise highQC, and commits for stragglers are retried via
// pendingCommit on block arrival, so a re-delivered ancient certificate
// is inert.
func (c *Core) acceptQC(qc *msg.QC) {
	if qc.V >= 0 && (qc.V < c.seenQC.Bound() || c.seenQC.Has(qc.V)) {
		return
	}
	if qc.V >= 0 {
		c.seenQC.Set(qc.V)
		if c.Obs != nil {
			c.Obs.OnQCSeen(qc, c.RT.Now())
		}
	}
	if qc.V > c.highQC.V {
		c.highQC = qc
	}
	c.qcByHash[qc.BlockHash] = qc
	// Lock rule: lock the parent of a newly certified block.
	b2, ok := c.blocks[qc.BlockHash]
	if ok && b2.View >= 0 {
		if pqc, ok := c.qcByHash[b2.Parent]; ok && pqc.V > c.lockedQC.V {
			c.lockedQC = pqc
		}
		c.tryCommit(b2)
	}
	if c.onQC != nil && qc.V >= 0 {
		c.onQC(qc)
	}
}

// tryCommit applies the chain commit rule: with a certified block heading
// a chain of chainLen blocks at consecutive views, the tail commits
// (three-chain for classic chained HotStuff, two-chain for the HotStuff-2
// style variant). If the rule walk hits a block not yet received, the
// check is deferred until it arrives; if the rule fails definitively
// (non-consecutive views), the head can never trigger a commit.
func (c *Core) tryCommit(head *Block) {
	tail := head
	for i := 1; i < c.cfg.chainLen(); i++ {
		parent, ok := c.blocks[tail.Parent]
		if !ok {
			if head.View > c.lastExec {
				c.pendingCommit[head.HashOf()] = head
				c.requestBlock(tail.Parent)
			}
			return
		}
		if parent.View < 0 || parent.View+1 != tail.View {
			return
		}
		tail = parent
	}
	delete(c.pendingCommit, head.HashOf())
	if tail.View <= c.lastExec {
		return
	}
	c.execChain(tail)
}

// execChain commits b0 and any uncommitted ancestors, oldest first. If an
// ancestor is not locally known yet (its proposal is still in flight),
// execution is deferred rather than committing a gapped chain; the
// arrival of any new block retries (retryPending).
func (c *Core) execChain(b0 *Block) {
	var chain []*Block
	cur := b0
	for cur != nil && cur.View > c.lastExec {
		chain = append(chain, cur)
		next, ok := c.blocks[cur.Parent]
		if !ok {
			c.pendingExec[b0.HashOf()] = b0
			c.requestBlock(cur.Parent)
			return
		}
		cur = next
	}
	delete(c.pendingExec, b0.HashOf())
	for i := len(chain) - 1; i >= 0; i-- {
		b := chain[i]
		if b.View < 0 {
			continue
		}
		c.lastExec = b.View
		c.committed = append(c.committed, b.HashOf())
		for _, cmd := range b.Cmds {
			if c.applied[cmd.ID] {
				continue
			}
			c.applied[cmd.ID] = true
			delete(c.inPool, cmd.ID)
			if c.sm != nil {
				// Execution errors (e.g. insufficient funds)
				// are results, not failures: state machines
				// must handle them deterministically.
				_, _ = c.sm.Apply(cmd.Payload)
			}
		}
		if c.onCommit != nil {
			c.onCommit(b, c.RT.Now())
		}
	}
	// Dead entries leave the pool when they reach its head; zeroing the
	// slot releases the payload, and append regrows over what is left.
	for len(c.mempool) > 0 && !c.inPool[c.mempool[0].ID] {
		c.mempool[0] = Command{}
		c.mempool = c.mempool[1:]
	}
}

// retryPending re-attempts deferred commit checks and executions after a
// new block arrives. Pending blocks are visited in (view, hash) order,
// never map order: a retry can broadcast a fetch for a missing ancestor,
// and letting Go's randomized map iteration decide whether that message
// is sent before or after lastExec advances would fork the run's RNG
// stream — the same seed would produce different tables run to run.
func (c *Core) retryPending() {
	for _, b := range sortedPending(c.pendingCommit) {
		if b.View > c.lastExec {
			c.tryCommit(b)
		}
	}
	for _, b := range sortedPending(c.pendingExec) {
		if b.View > c.lastExec {
			c.execChain(b)
		}
	}
	for h, b := range c.pendingCommit {
		if b.View <= c.lastExec {
			delete(c.pendingCommit, h)
		}
	}
	for h, b := range c.pendingExec {
		if b.View <= c.lastExec {
			delete(c.pendingExec, h)
		}
	}
}

// sortedPending snapshots a pending-block map in (view, hash) order so
// retry processing is independent of map iteration order.
func sortedPending(m map[Hash]*Block) []*Block {
	if len(m) == 0 {
		return nil
	}
	type entry struct {
		h Hash
		b *Block
	}
	es := make([]entry, 0, len(m))
	for h, b := range m {
		es = append(es, entry{h, b})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].b.View != es[j].b.View {
			return es[i].b.View < es[j].b.View
		}
		return bytes.Compare(es[i].h[:], es[j].h[:]) < 0
	})
	out := make([]*Block, len(es))
	for i, e := range es {
		out[i] = e.b
	}
	return out
}

// pruneBelow bounds the chain's bookkeeping on entering view v; block/QC
// maps retain recent history for parent walks and late commits.
func (c *Core) pruneBelow(v types.View) {
	// Old blocks below the executed prefix can be dropped once far
	// behind; keep a generous window for stragglers.
	if len(c.blocks) > 4096 {
		cut := c.lastExec - 1024
		for h, b := range c.blocks {
			if b.View >= 0 && b.View < cut {
				delete(c.blocks, h)
				delete(c.qcByHash, h)
			}
		}
	}
	c.seenQC.ForgetBelow(v - 8)
}
