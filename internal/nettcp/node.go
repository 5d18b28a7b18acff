package nettcp

import (
	"fmt"
	"sync"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/clock"
	"lumiere/internal/core"
	"lumiere/internal/crypto"
	"lumiere/internal/hotstuff"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/replica"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
	"lumiere/internal/viewcore"
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
	// Variant selects full or basic Lumiere (default full).
	Variant core.Variant
	// SMR runs chained HotStuff with a KV store (default: plain view
	// core).
	SMR bool
	// OnDecision, if set, fires when this node's leader role produces
	// a QC (a consensus decision).
	OnDecision func(v types.View)
	// OnCommit, if set, fires for each committed block (SMR only).
	OnCommit func(b *hotstuff.Block)

	// Start, when non-zero, is the node's wall-clock origin: local
	// times (metrics timestamps, GST) are measured from it. A cluster
	// harness passes one shared instant to all nodes so their decision
	// and send series live on a single comparable time base. Zero means
	// "now".
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
	// ProcDelays, when set, are per-recipient processing delays indexed
	// by NodeID (missing entries are zero): every envelope this node
	// sends to processor i is released ProcDelays[i] after its clamped
	// release time — the WAN slow-replica model. Give every node of a
	// cluster the same slice to emulate stragglers; use
	// network.Topology.NodeProcDelays to derive it from a regional
	// topology. Applied after the §2 clamp, like the simulator's.
	ProcDelays []time.Duration
}

// Node is a live TCP replica running Lumiere.
type Node struct {
	mu        sync.Mutex
	cfg       NodeConfig
	transport *Transport
	collector *metrics.Collector
	cond      *Conditioner
	rep       *replica.Replica
	pm        *core.Pacemaker
	hs        *hotstuff.Core
	kv        *statemachine.KV
	wall      *clock.Wall
	churn     []*time.Timer
}

// StartNode boots a node: it listens, connects to peers, and starts the
// protocol immediately (the processor joins with lc = 0).
func StartNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Base.Validate(); err != nil {
		return nil, fmt.Errorf("nettcp: %w", err)
	}
	if len(cfg.Addrs) != cfg.Base.N {
		return nil, fmt.Errorf("nettcp: %d addrs for n=%d", len(cfg.Addrs), cfg.Base.N)
	}
	n := &Node{cfg: cfg}
	start := cfg.Start
	if start.IsZero() {
		start = time.Now()
	}
	n.wall = clock.NewWallAt(&n.mu, start)

	variant := cfg.Variant
	if variant == 0 {
		variant = core.VariantFull
	}
	// The collector counts every wire send in the simulator's per-kind
	// words model; per-epoch words use the protocol's own epoch length,
	// exactly as the harness's accounting does. ccfg is also the
	// pacemaker's configuration below.
	ccfg := core.Config{Base: cfg.Base, Variant: variant, ScheduleSeed: cfg.Seed + 7}
	n.collector = metrics.NewCollector(nil, metrics.WithEpochWords(ccfg.EpochLen()))

	rep := replica.New(cfg.ID, nil, nil)
	n.rep = rep
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

	suite := crypto.NewEd25519Suite(cfg.Base.N, cfg.Seed)
	clk := clock.New(n.wall, 0)

	var pm *core.Pacemaker
	leaderFn := func(v types.View) types.NodeID { return pm.Leader(v) }
	onQC := func(qc *msg.QC) { pm.Handle(cfg.ID, qc) }
	obs := decisionObs{node: n}
	var engine replica.Engine
	if cfg.SMR {
		n.kv = statemachine.NewKV()
		n.hs = hotstuff.New(hotstuff.Config{Base: cfg.Base}, n.transport, n.wall, suite,
			leaderFn, onQC, n.kv, obs, func(b *hotstuff.Block, _ types.Time) {
				if cfg.OnCommit != nil {
					cfg.OnCommit(b)
				}
			})
		engine = n.hs
	} else {
		engine = viewcore.New(cfg.Base, n.transport, n.wall, suite, leaderFn, onQC, obs)
	}
	pm = core.New(ccfg, n.transport, n.wall, clk, suite, engine, pacemaker.NopObserver{}, nil)
	n.pm = pm
	rep.PM = pm
	rep.Core = engine

	if err := n.transport.Start(); err != nil {
		return nil, err
	}
	if n.cond != nil {
		for _, d := range cfg.Churn {
			down, up := d.From, d.To
			n.churn = append(n.churn,
				time.AfterFunc(down, func() { n.cond.SetDown(true) }),
				time.AfterFunc(up, n.rejoin))
		}
	}
	n.mu.Lock()
	rep.Start()
	n.mu.Unlock()
	return n, nil
}

// rejoin ends a churn downtime: the node sends and receives again, and an
// SMR node asks its peers for the chain's head (hotstuff.Core.Resync),
// since every QC broadcast while it was down was lost to it.
func (n *Node) rejoin() {
	n.cond.SetDown(false)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.hs != nil {
		n.hs.Resync()
	}
}

type decisionObs struct{ node *Node }

func (o decisionObs) OnQCSeen(*msg.QC, types.Time) {}

func (o decisionObs) OnQCProduced(qc *msg.QC, at types.Time) {
	// The producing node is the view's leader: record the consensus
	// decision exactly as the simulator's qcObserver does.
	o.node.collector.RecordDecision(qc.V, o.node.cfg.ID, at)
	if o.node.cfg.OnDecision != nil {
		o.node.cfg.OnDecision(qc.V)
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
// sends, drops, redials, decode errors).
func (n *Node) Stats() Stats { return n.transport.Stats() }

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

// Close stops the node and waits until no handler call is in flight.
func (n *Node) Close() {
	for _, tm := range n.churn {
		tm.Stop()
	}
	n.transport.Close()
}
