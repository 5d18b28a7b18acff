package harness

import (
	"fmt"
	"net"
	"sort"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/metrics"
	"lumiere/internal/nettcp"
	"lumiere/internal/network"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// This file implements the wall-clock counterpart of the simulated
// experiment drivers: loopback clusters of real TCP replicas
// (internal/nettcp) measured with the same words/decision machinery the
// simulator uses, so every simulated table in EXPERIMENTS.md can stand
// next to a real-I/O number.

// ClusterExperiment configures one loopback wall-clock cluster run: n
// single-process replicas over real sockets, one shared time origin, the
// declarative chaos axes of Scenario realized at the socket layer.
type ClusterExperiment struct {
	// F is the fault tolerance; N defaults to 3F+1.
	F int
	N int
	// Delta is Δ (default 50ms — loopback δ is far below it).
	Delta time.Duration
	// Seed derives the shared PKI and the per-node chaos streams.
	Seed int64
	// SMR runs chained HotStuff with a KV store on every node.
	SMR bool
	// Rate injects this many client commands per second round-robin
	// across the nodes (SMR only).
	Rate int
	// Duration is the wall-clock run length (default 3s).
	Duration time.Duration
	// Warmup decisions are skipped by the gap statistics (default 3).
	Warmup int

	// Chaos axes, mirroring Scenario's declarative fields; they compose
	// into a network.LinkPolicy applied by each node's socket-level
	// Conditioner under the §2 clamp.
	//
	// Loss drops each outbound message with this probability (pre-GST:
	// released at GST+Δ; post-GST: Δ-late unless OmissionBudget funds a
	// true omission).
	Loss float64
	// LossUntil limits Loss to sends before this instant (zero = whole
	// run).
	LossUntil time.Duration
	// Duplication enqueues an extra copy with this probability,
	// jittered by up to Δ/2.
	Duplication float64
	// ReorderJitter adds an independent uniform extra release delay in
	// [0, ReorderJitter] per message.
	ReorderJitter time.Duration
	// Partitions isolates processor groups until PartitionHeal
	// (default: heal at GST).
	Partitions    [][]types.NodeID
	PartitionHeal time.Duration
	// GST is the global stabilization time the conditioners honor
	// (relative to the shared start).
	GST time.Duration
	// OmissionBudget authorizes true post-GST omission per node;
	// MaxSenders must be ≤ F when set.
	OmissionBudget network.OmissionBudget
	// Churn schedules crash-recovery downtimes per node.
	Churn map[types.NodeID][]adversary.Downtime
}

func (e ClusterExperiment) withDefaults() ClusterExperiment {
	if e.Delta <= 0 {
		e.Delta = 50 * time.Millisecond
	}
	if e.N <= 0 {
		e.N = 3*e.F + 1
	}
	if e.Duration <= 0 {
		e.Duration = 3 * time.Second
	}
	if e.Warmup == 0 {
		e.Warmup = 3
	}
	return e
}

// LinkPolicy composes the experiment's chaos axes into the link policy
// each node's socket-level conditioner applies: Scenario.linkPolicy's
// chain (reorder → duplicate → loss → partition) over a zero-delay base,
// since on a real network the wire supplies δ itself. Nil when no axis
// is set.
func (e ClusterExperiment) LinkPolicy() network.LinkPolicy {
	if e.ReorderJitter <= 0 && e.Duplication <= 0 && e.Loss <= 0 && len(e.Partitions) == 0 {
		return nil
	}
	s := Scenario{
		Delta:         e.Delta,
		Loss:          e.Loss,
		LossUntil:     e.LossUntil,
		Duplication:   e.Duplication,
		ReorderJitter: e.ReorderJitter,
		Partitions:    e.Partitions,
		PartitionHeal: e.PartitionHeal,
	}
	return s.linkPolicy(types.Config{N: e.N}, types.Time(0).Add(e.GST), network.Fixed{})
}

// ClusterResult carries everything measured about one wall-clock
// cluster run. Decision timestamps live on the cluster's shared time
// base (nanoseconds since the common start).
type ClusterResult struct {
	// N and F echo the cluster shape.
	N, F int
	// Delta echoes Δ.
	Delta time.Duration
	// Elapsed is the wall-clock run length.
	Elapsed time.Duration
	// Decisions counts honest-leader consensus decisions across the
	// cluster (each recorded once, by its producing leader).
	Decisions int
	// Decided reports whether any decision landed after GST;
	// SyncLatency is the first one's distance from GST — the wall-clock
	// analogue of the simulated sync-latency measure.
	Decided     bool
	SyncLatency time.Duration
	// MeanGap and MaxGap summarize inter-decision gaps after Warmup.
	MeanGap, MaxGap time.Duration
	// Words is the honest communication in words summed over all
	// nodes' collectors (msg.Words per wire send — the simulator's
	// model, bit-for-bit).
	Words int64
	// WordsPerDecision is Words/Decisions (0 when undecided).
	WordsPerDecision float64
	// Sends is the total wire transmissions across the cluster.
	Sends int64
	// Committed is the minimum committed-block count across nodes (SMR
	// only).
	Committed int
	// Injected counts workload commands submitted (SMR only).
	Injected int
	// Omitted sums true post-GST omissions across conditioners.
	Omitted int64
	// Stats holds each node's transport counters.
	Stats []nettcp.Stats
	// Collectors holds each node's detached metrics snapshot.
	Collectors []*metrics.Collector
}

// QueueDrops sums peer-queue drops across the cluster.
func (r *ClusterResult) QueueDrops() int64 {
	return r.sumPeer(func(p nettcp.PeerStats) int64 { return p.QueueDrops })
}

// WriteDrops sums bounded-retry write drops across the cluster.
func (r *ClusterResult) WriteDrops() int64 {
	return r.sumPeer(func(p nettcp.PeerStats) int64 { return p.WriteDrops })
}

// DecodeErrors sums abandoned inbound streams across the cluster.
func (r *ClusterResult) DecodeErrors() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.DecodeErrors
	}
	return n
}

func (r *ClusterResult) sumPeer(f func(nettcp.PeerStats) int64) int64 {
	var n int64
	for _, s := range r.Stats {
		for _, p := range s.Peers {
			n += f(p)
		}
	}
	return n
}

// freeLoopbackAddrs reserves n distinct localhost ports. There is a
// small reuse race between Close and the nodes' Listen, acceptable for
// experiments.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("harness: reserve loopback port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// StartCluster boots e's loopback cluster over real sockets: n nodes on
// reserved 127.0.0.1 ports sharing one time origin, the chaos axes
// composed into each node's socket-level conditioner, per-node chaos
// streams seeded Seed+i+1. It returns the running nodes and the function
// that closes them all.
func StartCluster(e ClusterExperiment) (nodes []*nettcp.Node, closeAll func(), err error) {
	e = e.withDefaults()
	base := types.Config{N: e.N, F: e.F, Delta: e.Delta, X: types.DefaultX}
	if err := base.Validate(); err != nil {
		return nil, nil, fmt.Errorf("harness: cluster: %w", err)
	}
	if err := checkOmissionBudget(e.OmissionBudget, e.F); err != nil {
		return nil, nil, fmt.Errorf("harness: cluster: %w", err)
	}
	addrs, err := freeLoopbackAddrs(e.N)
	if err != nil {
		return nil, nil, err
	}
	link := e.LinkPolicy()
	start := time.Now()
	closeAll = func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	for i := 0; i < e.N; i++ {
		n, err := nettcp.StartNode(nettcp.NodeConfig{
			ID:             types.NodeID(i),
			Addrs:          addrs,
			Base:           base,
			Seed:           e.Seed,
			SMR:            e.SMR,
			Start:          start,
			Link:           link,
			GST:            e.GST,
			OmissionBudget: e.OmissionBudget,
			ChaosSeed:      e.Seed + int64(i) + 1,
			Churn:          e.Churn[types.NodeID(i)],
		})
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("harness: cluster node %d: %w", i, err)
		}
		nodes = append(nodes, n)
	}
	return nodes, closeAll, nil
}

// InjectCommands offers rate client commands per second to SMR nodes,
// round-robin, for d of wall clock (d ≤ 0: until the process exits), and
// returns how many were accepted. It is open loop on workload.Pacer's
// absolute due times: after a late wake-up the commands that fell due
// meanwhile follow at once (a time.Ticker drops them), and there is no
// period to underflow at high rates.
func InjectCommands(nodes []*nettcp.Node, rate int, d time.Duration) (accepted int) {
	pacer := workload.NewPacer(int64(rate))
	t0 := time.Now()
	end := t0.Add(d)
	for {
		due := t0.Add(time.Duration(pacer.NextAtNs()))
		if d > 0 && (due.After(end) || time.Now().After(end)) {
			return accepted
		}
		time.Sleep(time.Until(due))
		i := pacer.Take()
		if nodes[i%int64(len(nodes))].Submit(kvCommand(nil, i)) == nil {
			accepted++
		}
	}
}

// RunCluster boots the cluster over real sockets, runs it for
// e.Duration of wall-clock time, shuts it down, and aggregates the
// per-node metrics snapshots into one result.
func RunCluster(e ClusterExperiment) (*ClusterResult, error) {
	e = e.withDefaults()
	nodes, closeAll, err := StartCluster(e)
	if err != nil {
		return nil, err
	}
	defer closeAll()

	end := time.Now().Add(e.Duration)
	injected := 0
	if e.SMR && e.Rate > 0 {
		injected = InjectCommands(nodes, e.Rate, e.Duration)
	}
	time.Sleep(time.Until(end))

	res := &ClusterResult{
		N:        e.N,
		F:        e.F,
		Delta:    e.Delta,
		Elapsed:  time.Duration(nodes[0].Now()),
		Injected: injected,
	}
	gst := types.Time(0).Add(e.GST)
	var decisions []metrics.Decision
	minCommitted := -1
	for _, n := range nodes {
		col := n.Metrics()
		res.Collectors = append(res.Collectors, col)
		res.Stats = append(res.Stats, n.Stats())
		res.Words += col.WordsTotal()
		res.Sends += col.HonestSends()
		res.Omitted += n.Omitted()
		decisions = append(decisions, col.Decisions()...)
		if e.SMR {
			_, _, committed := n.Status()
			if minCommitted < 0 || committed < minCommitted {
				minCommitted = committed
			}
		}
	}
	if e.SMR {
		res.Committed = minCommitted
	}
	// Each decision is recorded exactly once, by the leader that
	// produced it; the merged per-node streams form the cluster's
	// global decision log on the shared time base.
	sort.Slice(decisions, func(i, j int) bool { return decisions[i].At < decisions[j].At })
	res.Decisions = len(decisions)
	for _, d := range decisions {
		if d.At > gst {
			res.Decided = true
			res.SyncLatency = d.At.Sub(gst)
			break
		}
	}
	if res.Decisions > 0 {
		res.WordsPerDecision = float64(res.Words) / float64(res.Decisions)
	}
	var gaps []time.Duration
	for i := e.Warmup + 1; i < len(decisions); i++ {
		gaps = append(gaps, decisions[i].At.Sub(decisions[i-1].At))
	}
	if len(gaps) > 0 {
		var sum time.Duration
		for _, g := range gaps {
			sum += g
			if g > res.MaxGap {
				res.MaxGap = g
			}
		}
		res.MeanGap = sum / time.Duration(len(gaps))
	}
	return res, nil
}

// ClusterTable runs one loopback cluster per f in fs (n = 3f+1) for
// perRun of wall clock each and renders the wall-clock sync-latency and
// words measures in a fixed schema: the values are wall-clock (and so
// vary run to run) but the header, row count and row order depend only
// on fs — the real-I/O table that stands next to the simulated ones in
// EXPERIMENTS.md.
func ClusterTable(fs []int, delta, perRun time.Duration, seed int64) (*Table, error) {
	t := &Table{Title: "Wall-clock loopback cluster: sync latency and words (real TCP)"}
	t.Header = []string{"n", "f", "decisions", "sync-lat", "mean-gap", "words", "words/dec", "words/dec/n", "drops"}
	for _, f := range fs {
		res, err := RunCluster(ClusterExperiment{
			F:        f,
			Delta:    delta,
			Seed:     seed,
			Duration: perRun,
		})
		if err != nil {
			return nil, err
		}
		sync := "stalled"
		if res.Decided {
			sync = res.SyncLatency.Round(time.Millisecond).String()
		}
		wpd, wpdn := "-", "-"
		if res.Decisions > 0 {
			wpd = fmt.Sprintf("%.1f", res.WordsPerDecision)
			wpdn = fmt.Sprintf("%.2f", res.WordsPerDecision/float64(res.N))
		}
		t.AddRow(
			fmt.Sprintf("%d", res.N),
			fmt.Sprintf("%d", res.F),
			fmt.Sprintf("%d", res.Decisions),
			sync,
			res.MeanGap.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", res.Words),
			wpd,
			wpdn,
			fmt.Sprintf("%d", res.QueueDrops()+res.WriteDrops()),
		)
	}
	t.AddNote("real sockets on 127.0.0.1, Δ=%s, %s per cell, seed %d; values are wall-clock (schema deterministic, values not)", delta, perRun, seed)
	return t, nil
}
