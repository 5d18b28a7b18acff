package nettcp

import (
	"fmt"
	"sync"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/hotstuff"
	"lumiere/internal/metrics"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/replica"
	"lumiere/internal/stack"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
)

// NodeConfig configures one TCP node.
type NodeConfig struct {
	// ID is this node's index into Addrs.
	ID types.NodeID
	// Addrs lists every node's listen address, indexed by NodeID.
	Addrs []string
	// Base is the shared execution-model configuration.
	Base types.Config
	// Seed derives the shared PKI (all nodes must agree).
	Seed int64
	// Protocol selects the view-synchronization protocol (default
	// Lumiere); StartNode rejects one internal/stack does not know.
	Protocol stack.Protocol
	// SMR runs chained HotStuff with a KV store (default: plain view
	// core).
	SMR bool
	// OnDecision, if set, fires when this node's leader role produces
	// a QC (a consensus decision).
	OnDecision func(v types.View)
	// OnCommit, if set, fires for each committed block (SMR only).
	OnCommit func(b *hotstuff.Block)

	// Start is the node's wall-clock origin (zero: now): GST, churn
	// downtimes and metrics timestamps count from it. A cluster passes
	// every node one shared instant, so their series share a time base.
	Start time.Time

	// Link, when set, conditions this node's outbound socket traffic
	// with the same LinkPolicy primitives that condition the simulated
	// network (partitions, loss, duplication, reorder jitter), under
	// the §2 clamp max(GST, t)+Δ relative to Start. See Conditioner.
	Link network.LinkPolicy
	// GST is the global stabilization time (relative to Start) the
	// conditioner's clamp and omission budget honor.
	GST time.Duration
	// OmissionBudget authorizes true post-GST omission of this node's
	// outbound messages (see network.OmissionBudget).
	OmissionBudget network.OmissionBudget
	// ChaosSeed drives the link conditioner's randomness (default:
	// Seed + the node's ID, so per-node streams differ).
	ChaosSeed int64
	// Churn schedules crash-recovery downtimes: during each interval
	// the node neither sends nor receives (state is kept, like the
	// simulator's BehaviorChurn).
	Churn []adversary.Downtime
	// ProcDelays are the straggler delays, indexed by NodeID (missing
	// entries zero): every envelope this node sends to processor i is
	// released ProcDelays[i] after its §2-clamped release time, as in the
	// simulator. Every node of a cluster gets the same slice.
	ProcDelays []time.Duration
}

// Node is a live TCP replica running any protocol's stack, built by
// stack.Build as in the simulator.
type Node struct {
	mu        sync.Mutex
	transport *Transport
	collector *metrics.Collector
	cond      *Conditioner
	pm        pacemaker.Pacemaker
	hs        *hotstuff.Core
	kv        *statemachine.KV
	wall      *clock.Wall
	suite     *crypto.Ed25519Suite
}

// StartNode boots a node: it listens, connects to peers, and starts the
// protocol immediately (the processor joins with lc = 0). Churn downtimes
// are timers of the node's clock.Wall, armed on the Start origin, so one
// that began before StartNode returns has the node down already.
func StartNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Base.Validate(); err != nil {
		return nil, fmt.Errorf("nettcp: %w", err)
	}
	if len(cfg.Addrs) != cfg.Base.N {
		return nil, fmt.Errorf("nettcp: %d addrs for n=%d", len(cfg.Addrs), cfg.Base.N)
	}
	if cfg.Protocol == "" {
		cfg.Protocol = stack.Lumiere
	}
	if err := cfg.Protocol.Validate(); err != nil {
		return nil, fmt.Errorf("nettcp: %w", err)
	}
	n := &Node{}
	start := cfg.Start
	if start.IsZero() {
		start = time.Now()
	}
	n.wall = clock.NewWallAt(&n.mu, start)
	n.suite = crypto.NewEd25519Suite(cfg.Base.N, cfg.Seed)

	// The collector counts every wire send in the simulator's per-kind
	// words model.
	n.collector = metrics.NewCollector(nil)

	rep := replica.New(cfg.ID, nil, nil)
	topts := []Option{WithObserver(n.collector, n.wall.Now)}
	if cfg.Link != nil || len(cfg.Churn) > 0 || len(cfg.ProcDelays) > 0 ||
		cfg.OmissionBudget != (network.OmissionBudget{}) {
		chaosSeed := cfg.ChaosSeed
		if chaosSeed == 0 {
			chaosSeed = cfg.Seed + int64(cfg.ID)
		}
		n.cond = NewConditioner(cfg.Link, cfg.GST, cfg.Base.Delta, cfg.OmissionBudget, n.wall.Now, chaosSeed)
		n.cond.SetProcDelays(cfg.ProcDelays)
		topts = append(topts, WithConditioner(n.cond))
	}
	n.transport = New(cfg.ID, cfg.Addrs, &n.mu, rep, topts...)

	node := stack.Node{
		Protocol:   cfg.Protocol,
		Seed:       cfg.Seed,
		SMR:        cfg.SMR,
		Base:       cfg.Base,
		Endpoint:   n.transport,
		Runtime:    n.wall,
		Clock:      clock.New(n.wall, 0),
		Suite:      n.suite,
		Collector:  n.collector,
		OnDecision: cfg.OnDecision,
	}
	if cfg.SMR {
		n.kv = statemachine.NewKV()
		node.SM = n.kv
	}
	if cfg.OnCommit != nil {
		node.OnCommit = func(b *hotstuff.Block, _ types.Time) { cfg.OnCommit(b) }
	}
	n.pm, rep.Core = stack.Build(node)
	rep.PM = n.pm
	n.hs, _ = rep.Core.(*hotstuff.Core)

	if err := n.transport.Start(); err != nil {
		n.transport.Close() // stops the self-send worker New started
		return nil, err
	}
	n.mu.Lock()
	now := n.wall.Now()
	for _, d := range cfg.Churn { // churn implies a conditioner
		down, up := types.Time(d.From), types.Time(d.To)
		switch {
		case up <= now: // over before the node started
		case down <= now:
			n.cond.SetDown(true)
			n.wall.AtTimer(up, n.rejoin)
		default:
			n.wall.AtTimer(down, func() { n.cond.SetDown(true) })
			n.wall.AtTimer(up, n.rejoin)
		}
	}
	rep.Start()
	n.mu.Unlock()
	return n, nil
}

// rejoin ends a churn downtime: the node sends and receives again, and an
// SMR node asks its peers for the chain's head (hotstuff.Core.Resync),
// since every QC broadcast while it was down was lost to it. It runs
// under the node lock, as a timer of the node's Wall.
func (n *Node) rejoin() {
	n.cond.SetDown(false)
	if n.hs != nil {
		n.hs.Resync()
	}
}

// Submit enqueues a client command into this node's mempool and forwards
// it to the leaders of the next two views (hotstuff.Core.Submit); SMR
// only.
func (n *Node) Submit(payload []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.hs == nil {
		return fmt.Errorf("nettcp: node is not running SMR")
	}
	n.hs.Submit(payload)
	return nil
}

// Status returns a snapshot of protocol progress.
func (n *Node) Status() (view types.View, epoch types.Epoch, committed int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	view = n.pm.CurrentView()
	epoch = n.pm.CurrentEpoch()
	if n.hs != nil {
		committed = n.hs.CommittedCount()
	}
	return view, epoch, committed
}

// Metrics returns an independent snapshot of the node's metrics
// Collector: wire sends counted in the simulator's per-kind words model
// (msg.Words), decision instants on the node's wall clock. Safe to call
// while the node runs.
func (n *Node) Metrics() *metrics.Collector { return n.collector.Snapshot() }

// Stats returns a snapshot of the node's transport counters (per-peer
// sends, drops, redials, decode errors) and of its suite's ed25519
// verifications.
func (n *Node) Stats() Stats {
	s := n.transport.Stats()
	s.Verifications = n.suite.Verifications()
	return s
}

// Omitted returns the true post-GST omissions the node's conditioner
// granted (0 without chaos).
func (n *Node) Omitted() int64 {
	if n.cond == nil {
		return 0
	}
	return n.cond.Omitted()
}

// Now returns the node's local wall-clock time (nanoseconds since its
// Start origin) — the time base of Metrics timestamps.
func (n *Node) Now() types.Time { return n.wall.Now() }

// KV exposes the node's state machine (SMR only; may be nil).
func (n *Node) KV() *statemachine.KV { return n.kv }

// CommittedHashes returns the commit log (SMR only).
func (n *Node) CommittedHashes() []hotstuff.Hash {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.hs == nil {
		return nil
	}
	return n.hs.CommittedHashes()
}

// Addr returns the node's bound address.
func (n *Node) Addr() string { return n.transport.Addr() }

// Close stops the node: it closes the transport, then stops the Wall's
// timers. Once Close returns no delivery or timer callback is running
// and none will follow, so a closed node sends nothing more and is
// garbage once its caller drops it. Do not call it with the node lock
// held.
func (n *Node) Close() {
	n.transport.Close()
	n.wall.Stop()
}
