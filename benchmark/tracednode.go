package main

import (
	"fmt"
	"sync"
	"time"

	"lumiere/internal/clock"
	"lumiere/internal/core"
	"lumiere/internal/crypto"
	"lumiere/internal/hotstuff"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/nettcp"
	"lumiere/internal/pacemaker"
	"lumiere/internal/replica"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
)

// tracedNode is a TCP SMR replica assembled here from the public
// constructors nettcp.StartNode calls, with a timing decorator at every
// interface. Everything the decorators touch runs under the node lock
// (deliveries, timer callbacks, Submit), so one recorder per node needs
// no lock of its own.
type tracedNode struct {
	mu        sync.Mutex
	rec       *recorder
	suite     *tracedSuite
	link      *tracedLink
	transport *nettcp.Transport
	endpoint  tracedEndpoint
	collector *metrics.Collector
	cond      *nettcp.Conditioner
	hs        *hotstuff.Core
	pm        *core.Pacemaker
	kv        *statemachine.KV
	churn     []*time.Timer
}

// startTracedNode mirrors nettcp.StartNode for an SMR node with a link
// conditioner.
func startTracedNode(cfg nettcp.NodeConfig) (*tracedNode, error) {
	if err := cfg.Base.Validate(); err != nil {
		return nil, fmt.Errorf("traced node: %w", err)
	}
	if !cfg.SMR || cfg.Link == nil {
		return nil, fmt.Errorf("traced node: only conditioned SMR nodes are assembled")
	}
	n := &tracedNode{rec: newRecorder(), kv: statemachine.NewKV()}
	rec, id := n.rec, cfg.ID
	running := id // one node per recorder: the running node never changes
	wall := clock.NewWallAt(&n.mu, cfg.Start)

	ccfg := core.Config{Base: cfg.Base, Variant: core.VariantFull, ScheduleSeed: cfg.Seed + 7}
	n.collector = metrics.NewCollector(nil, metrics.WithEpochWords(ccfg.EpochLen()))
	n.link = &tracedLink{inner: cfg.Link, rec: rec}
	n.cond = nettcp.NewConditioner(n.link, cfg.GST, cfg.Base.Delta, cfg.OmissionBudget, wall.Now, cfg.ChaosSeed)

	rep := replica.New(id, nil, nil)
	n.transport = nettcp.New(id, cfg.Addrs, &n.mu, tracedHandler{inner: rep, rec: rec, id: id, node: &running},
		nettcp.WithObserver(tracedObserver{inner: n.collector, rec: rec}, wall.Now),
		nettcp.WithConditioner(n.cond))
	n.endpoint = tracedEndpoint{inner: n.transport, rec: rec}
	n.suite = newTracedSuite(crypto.NewEd25519Suite(cfg.Base.N, cfg.Seed), rec, &running)

	var pm tracedPacemaker
	leader := func(v types.View) types.NodeID { return pm.Leader(v) }
	onQC := func(qc *msg.QC) { pm.Handle(id, qc) }
	obs := qcHook{id: id, collector: n.collector}
	n.hs = hotstuff.New(hotstuff.Config{Base: cfg.Base}, n.endpoint,
		traceRuntime(wall, rec, spHotstuffTimer, id, &running), n.suite, leader, onQC,
		tracedSM{inner: n.kv, rec: rec}, obs,
		func(b *hotstuff.Block, _ types.Time) { cfg.OnCommit(b) })
	engine := tracedEngine{inner: n.hs, rec: rec, handle: spHotstuffHandle}
	coreRT := traceRuntime(wall, rec, spCoreTimer, id, &running)
	p := core.New(ccfg, n.endpoint, coreRT, clock.New(coreRT, 0), n.suite, engine, pacemaker.NopObserver{}, nil)
	n.pm = p
	pm = tracedPacemaker{inner: p, rec: rec}
	rep.PM, rep.Core = pm, engine

	if err := n.transport.Start(); err != nil {
		return nil, err
	}
	for _, d := range cfg.Churn {
		n.churn = append(n.churn,
			time.AfterFunc(d.From, func() { n.cond.SetDown(true) }),
			time.AfterFunc(d.To, func() { n.cond.SetDown(false) }))
	}
	n.mu.Lock()
	rep.Start()
	n.mu.Unlock()
	return n, nil
}

func (n *tracedNode) Submit(payload []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rec.begin(spSubmit)
	id := n.hs.Submit(payload)
	n.endpoint.Broadcast(&msg.Request{ID: id, Payload: payload})
	n.rec.end()
	return nil
}

func (n *tracedNode) Metrics() *metrics.Collector { return n.collector.Snapshot() }
func (n *tracedNode) Stats() nettcp.Stats         { return n.transport.Stats() }
func (n *tracedNode) KV() *statemachine.KV        { return n.kv }

func (n *tracedNode) CommittedHashes() []hotstuff.Hash {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hs.CommittedHashes()
}

func (n *tracedNode) Close() {
	for _, tm := range n.churn {
		tm.Stop()
	}
	n.transport.Close()
}

// tracedClusterMetrics merges the nodes' recorders into the per-layer
// metrics, estimates the tracing overhead and runs the TCP-side kernels.
func tracedClusterMetrics(o *outcome, spec tcpSpec, c *cluster, opt options) {
	total := newRecorder()
	var certCalls, certs, failed, dropped, duplicated float64
	var cols []*metrics.Collector
	var views []types.View
	for i, n := range c.traced {
		// Close stops deliveries, not the protocol's timers: their
		// callbacks still take the node lock and record spans.
		n.mu.Lock()
		cols = append(cols, n.Metrics())
		views = append(views, n.pm.CurrentView())
		total.merge(n.rec)
		certCalls += n.rec.calls(spVerifyAgg)
		certs += float64(len(n.suite.certsSeen))
		failed += float64(n.suite.failed)
		dropped += float64(n.link.dropped)
		duplicated += float64(n.link.duplicated)
		if path, err := writeSpans(fmt.Sprintf("%s-seed%d-node%d", spec.name, opt.Seed, i), n.rec); err != nil {
			o.notef("spans not written: %v", err)
		} else if i == 0 {
			o.notef("first %d spans per node written to %s (and -node1…)", len(n.rec.retained), path)
		}
		n.mu.Unlock()
	}
	spanMetrics(o, total, true)
	o.Values["crypto.verify_agg.failed"] = failed
	if certs > 0 {
		o.Values["crypto.verify_agg.per_cert"] = certCalls / certs
	}
	o.Values["network.link.dropped"] = dropped
	o.Values["network.link.duplicated"] = duplicated
	blocks := float64(len(c.nodes[0].CommittedHashes()))
	o.Values["hotstuff.blocks_committed"] = blocks
	if blocks > 0 {
		o.Values["hotstuff.cmds_per_block"] = o.Values["workload.submitted"] / blocks
	}
	coreMetrics(o, cols, views)
	// No untraced twin of a wall-clock run exists to subtract, so the
	// overhead is the span count times the calibrated cost of one span,
	// as a share of the CPU the run used.
	var spans int64
	for i := range total.stats {
		spans += total.stats[i].Calls
	}
	if cpu := o.Values["runtime.cpu_s"]; cpu > 0 {
		o.Values["runtime.trace_overhead_pct"] = 100 * float64(spans) * spanCostSeconds() / cpu
	}
	o.Notes = append(o.Notes, "boundary spans, all nodes (roots are deliveries, timer callbacks and submits):")
	o.Notes = append(o.Notes, total.accounting()...)
	tcpKernels(o, spec.n, spec.f)
}
