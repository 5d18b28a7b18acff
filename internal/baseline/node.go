// Package baseline is the skeleton the five Table 1 baseline pacemakers
// (lp22, raresync, fever, cogsworth, nk20) and Lumiere itself
// (internal/core) are written over, so each of those packages holds only
// what the paper says distinguishes its protocol:
//
//   - Node is one processor's wiring and current view, with the
//     round-robin leader schedule and the view-entry notification
//     sequence (Advance);
//   - Certs is the bookkeeping behind one certificate kind assembled
//     from signed synchronization messages: per-view vote sets that
//     store the signatures their seal needs, and a formed flag, fed
//     through Collect (= Add, then Seal at threshold);
//   - EpochSync is the epoch-synchronization machine that is both LP22
//     and RareSync.
//
// Cogsworth and NK20 share Node and Certs but stay separate types: one
// relays a single wish along a ring of aggregators on a retry timer, the
// other fans f+1 timeouts out at once to leaders that alone aggregate,
// and a common "timeout relay" would have to take every one of those
// differences as a hook.
package baseline

import (
	"fmt"

	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/quorum"
	"lumiere/internal/trace"
	"lumiere/internal/types"
)

// Node is one processor's wiring: the execution-model configuration,
// its network endpoint and runtime, its keys, the underlying protocol it
// drives, and the view it is in. The baseline pacemakers embed it.
type Node struct {
	Cfg    types.Config
	ID     types.NodeID
	EP     network.Endpoint
	RT     clock.Runtime
	Suite  crypto.Suite
	Signer crypto.Signer
	// Stmt is the statement scratch: sign/verify statements are
	// rebuilt in place, keeping the message hot paths free of
	// per-call statement allocations.
	Stmt   msg.StmtScratch
	Driver pacemaker.Driver
	Tr     *trace.Tracer
	// Certs collects the votes toward the certificate kind this
	// protocol assembles (EC, VC or TC).
	Certs Certs
	// Obs is told of every view entry (Advance) and, by the protocols
	// that have them, of epoch entries and heavy synchronizations.
	Obs pacemaker.Observer

	view types.View
}

// NewNode validates cfg and wires a processor that has entered no view
// yet. A nil driver or observer is replaced by its no-op.
func NewNode(cfg types.Config, ep network.Endpoint, rt clock.Runtime, suite crypto.Suite,
	driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) Node {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("baseline: invalid config: %v", err))
	}
	if obs == nil {
		obs = pacemaker.NopObserver{}
	}
	if driver == nil {
		driver = pacemaker.NopDriver{}
	}
	return Node{
		Cfg:    cfg,
		ID:     ep.ID(),
		EP:     ep,
		RT:     rt,
		Suite:  suite,
		Signer: suite.SignerFor(ep.ID()),
		Driver: driver,
		Tr:     tr,
		Certs:  NewCerts(suite, cfg.N),
		Obs:    obs,
		view:   types.NoView,
	}
}

// CurrentView implements pacemaker.Pacemaker.
func (n *Node) CurrentView() types.View { return n.view }

// CurrentEpoch implements pacemaker.Pacemaker for the baselines without
// epochs; EpochSync overrides it.
func (n *Node) CurrentEpoch() types.Epoch { return 0 }

// Leader implements pacemaker.Pacemaker: lead(v) = v mod n, the
// schedule of every baseline but Fever.
func (n *Node) Leader(v types.View) types.NodeID {
	if v < 0 {
		return types.NoNode
	}
	return types.NodeID(v % types.View(n.Cfg.N))
}

// Advance enters view w, which the caller has checked is above the
// current view: it records the view, notifies tracer, observer and
// driver in that order, and — when lead is set — tells the driver it may
// start the view as its leader, with no QC deadline (the Γ/2 − 2Δ rule
// is Lumiere's).
func (n *Node) Advance(w types.View, lead bool) {
	n.view = w
	n.Tr.Emit(n.RT.Now(), n.ID, trace.EnterView, w, "")
	n.Obs.OnEnterView(w, n.RT.Now())
	n.Driver.EnterView(w)
	if lead {
		n.Driver.LeaderStart(w, types.TimeInf)
	}
}

// Certs is the certificate bookkeeping of one processor: the votes
// collected per view and the views whose certificate has been formed.
type Certs struct {
	suite  crypto.Suite
	n      int
	votes  quorum.Window[types.View, *quorum.VoteSet]
	free   []*quorum.VoteSet
	formed quorum.Flags
}

// NewCerts returns empty bookkeeping for a system of n processors.
func NewCerts(suite crypto.Suite, n int) Certs {
	return Certs{suite: suite, n: n}
}

// Add counts from's signed synchronization message for view v and
// returns the view's vote count. stmt is the statement the message
// signs, built once by the caller; keep is how many signatures the view
// stores: the threshold Seal will aggregate at, or 0 for a view that is
// only counted and never sealed. A message whose Sig.Signer != from or
// whose signature does not verify, a second vote from one signer, and
// anything for a view whose certificate is already formed are ignored
// and return 0. Callers drop views below the Forget bound before calling.
func (c *Certs) Add(from types.NodeID, v types.View, sig crypto.Signature, stmt []byte, keep int) int {
	if c.formed.Has(v) || sig.Signer != from || c.suite.Verify(stmt, sig) != nil {
		return 0
	}
	votes, ok := c.votes.At(v)
	if !ok {
		// A processor keeps the same keep per certificate kind, so a
		// recycled set already has the capacity it needs.
		if k := len(c.free); k > 0 {
			votes, c.free = c.free[k-1], c.free[:k-1]
		} else {
			votes = new(quorum.VoteSet)
		}
		votes.ResetKeep(c.n, keep)
		c.votes.Put(v, votes)
	}
	if !votes.Add(sig) {
		return 0
	}
	return votes.Count()
}

// Seal aggregates the signatures view v's votes stored over stmt into its
// certificate and marks the view formed, so later votes for it are
// dropped unverified. Callers seal a view once Add has counted its votes
// to threshold.
func (c *Certs) Seal(v types.View, stmt []byte) (crypto.Aggregate, bool) {
	votes, _ := c.votes.At(v)
	agg, err := c.suite.Aggregate(stmt, votes.Sigs())
	if err != nil {
		return crypto.Aggregate{}, false
	}
	c.formed.Set(v)
	return agg, true
}

// Collect is Add, storing threshold signatures, followed, on the call
// that brings view v to threshold votes, by Seal: it returns the
// certificate and true, once.
func (c *Certs) Collect(from types.NodeID, v types.View, sig crypto.Signature, stmt []byte, threshold int) (crypto.Aggregate, bool) {
	if c.Add(from, v, sig, stmt, threshold) < threshold {
		return crypto.Aggregate{}, false
	}
	return c.Seal(v, stmt)
}

// Formed reports whether this processor assembled view v's certificate.
func (c *Certs) Formed(v types.View) bool { return c.formed.Has(v) }

// Forget drops the bookkeeping of every view below bound and recycles
// its vote sets, so a long execution keeps a constant working set.
func (c *Certs) Forget(bound types.View) {
	c.votes.ForgetBelow(bound, c.recycle)
	c.formed.ForgetBelow(bound)
}

// recycle releases a pruned set's signatures and returns it to the pool.
func (c *Certs) recycle(vs *quorum.VoteSet) {
	vs.Release()
	c.free = append(c.free, vs)
}

// Live returns the number of views holding a vote set (tests: the
// pruning contract).
func (c *Certs) Live() int { return c.votes.Len() }

// Stored returns the number of signatures view v's vote set holds (tests:
// the storage contract).
func (c *Certs) Stored(v types.View) int {
	if votes, ok := c.votes.At(v); ok {
		return len(votes.Sigs())
	}
	return 0
}
