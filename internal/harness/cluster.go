package harness

import (
	"fmt"
	"net"
	"reflect"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/metrics"
	"lumiere/internal/nettcp"
	"lumiere/internal/network"
	"lumiere/internal/types"
	"lumiere/internal/viz"
	"lumiere/internal/workload"
)

// This file implements the wall-clock counterpart of the simulated
// experiment drivers: loopback clusters of real TCP replicas
// (internal/nettcp) measured with the same words/decision machinery the
// simulator uses, so every simulated table in EXPERIMENTS.md can stand
// next to a real-I/O number.

// clusterFields are the Scenario fields the TCP runtime realizes: the
// protocol and model, the client load (Workload with only Rate set, fed
// to InjectCommands), the declarative chaos axes (composed by linkPolicy
// into each node's socket-level Conditioner under the §2 clamp), the
// straggler delays (every node's conditioner holds each envelope to
// processor i for ProcDelays[i]) and churn (Corruptions whose behavior is
// BehaviorChurn). Any other field set on a cluster's scenario is rejected
// by name, so a field added to Scenario stays rejected on TCP until it is
// wired here.
var clusterFields = map[string]bool{
	"Protocol": true, "F": true, "N": true, "Delta": true, "Seed": true, "Duration": true,
	"SMR": true, "Workload": true,
	"GST": true, "Loss": true, "LossUntil": true, "Duplication": true,
	"ReorderJitter": true, "Partitions": true, "PartitionHeal": true,
	"OmissionBudget": true, "ProcDelays": true, "Corruptions": true,
}

// clusterWarmup decisions are skipped by the gap statistics.
const clusterWarmup = 3

// checkCluster rejects the parts of a caller's scenario, before
// defaults, that the TCP runtime does not realize.
func checkCluster(s Scenario) error {
	if err := unrealized(reflect.ValueOf(s), "Scenario", clusterFields); err != nil {
		return err
	}
	if s.Workload != nil {
		if err := unrealized(reflect.ValueOf(*s.Workload), "Scenario.Workload", map[string]bool{"Rate": true}); err != nil {
			return err
		}
	}
	for i, c := range s.Corruptions {
		if c.Behavior != adversary.BehaviorChurn {
			return fmt.Errorf("Scenario.Corruptions[%d] has behavior %v; the TCP cluster realizes only churn", i, c.Behavior)
		}
	}
	return nil
}

// unrealized returns an error naming the first non-zero field of the
// struct v that realized does not list.
func unrealized(v reflect.Value, prefix string, realized map[string]bool) error {
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !realized[name] && !v.Field(i).IsZero() {
			return fmt.Errorf("%s.%s is set, but the TCP cluster does not realize it", prefix, name)
		}
	}
	return nil
}

// ClusterResult carries everything measured about one wall-clock
// cluster run.
type ClusterResult struct {
	// Scenario is the run's scenario with defaults applied.
	Scenario Scenario
	// Collector merges the honest nodes' metrics snapshots
	// (metrics.Collector.Merge) on the cluster's shared time base
	// (nanoseconds since the common start). It is read with the queries
	// the simulated tables use. A churned node is charged nothing, as in
	// the simulator: its sends and its decisions are absent.
	Collector *metrics.Collector
	// Elapsed is the wall-clock run length.
	Elapsed time.Duration
	// Committed is the minimum committed-block count across nodes (SMR
	// only).
	Committed int
	// Injected counts workload commands submitted (SMR only).
	Injected int
	// Omitted sums true post-GST omissions across conditioners.
	Omitted int64
	// Stats holds each node's transport counters.
	Stats []nettcp.Stats
}

// freeLoopbackAddrs reserves n distinct localhost ports. There is a
// small reuse race between Close and the nodes' Listen, acceptable for
// experiments.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("harness: reserve loopback port: %w", err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// StartCluster boots s's loopback cluster over real sockets: n nodes of
// s.Protocol on reserved 127.0.0.1 ports sharing one time origin, every
// node given the same ProcDelays, the chaos axes composed into each
// node's socket-level conditioner over a zero-delay base (the wire
// supplies δ itself), per-node chaos streams seeded Seed+i+1, and each
// churn corruption's downtimes scheduled on its node.
// A field of s the TCP runtime does not realize is an error that names
// it. StartCluster does not drive s.Workload; RunCluster does, and a
// caller of StartCluster passes it to InjectCommands. It returns the
// running nodes and the function that closes them all.
func StartCluster(s Scenario) (nodes []*nettcp.Node, closeAll func(), err error) {
	if err := checkCluster(s); err != nil {
		return nil, nil, fmt.Errorf("harness: cluster: %w", err)
	}
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, nil, fmt.Errorf("harness: cluster: %w", err)
	}
	base := types.Config{N: s.N, F: s.F, Delta: s.Delta, X: types.DefaultX}
	churn := make(map[types.NodeID][]adversary.Downtime, len(s.Corruptions))
	for _, c := range s.Corruptions {
		churn[c.Node] = c.Downs
	}
	var link network.LinkPolicy
	if s.ReorderJitter > 0 || s.Duplication > 0 || s.Loss > 0 || len(s.Partitions) > 0 {
		link = s.linkPolicy(base, types.Time(0).Add(s.GST), network.Fixed{})
	}
	addrs, err := freeLoopbackAddrs(s.N)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	closeAll = func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	for i := 0; i < s.N; i++ {
		n, err := nettcp.StartNode(nettcp.NodeConfig{
			ID:             types.NodeID(i),
			Addrs:          addrs,
			Base:           base,
			Seed:           s.Seed,
			Protocol:       s.Protocol,
			SMR:            s.SMR,
			Start:          start,
			Link:           link,
			GST:            s.GST,
			OmissionBudget: s.OmissionBudget,
			ChaosSeed:      s.Seed + int64(i) + 1,
			Churn:          churn[types.NodeID(i)],
			ProcDelays:     s.ProcDelays,
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

// RunCluster boots s's cluster over real sockets (StartCluster), offers
// s.Workload's rate to it, runs it for s.Duration of wall-clock time,
// shuts it down, and merges the honest nodes' metrics snapshots into
// the result's Collector.
func RunCluster(s Scenario) (*ClusterResult, error) {
	nodes, closeAll, err := StartCluster(s)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	s = s.withDefaults()

	end := time.Now().Add(s.Duration)
	injected := 0
	if s.Workload != nil {
		injected = InjectCommands(nodes, int(s.Workload.Rate), s.Duration)
	}
	time.Sleep(time.Until(end))

	res := &ClusterResult{
		Scenario: s,
		Elapsed:  time.Duration(nodes[0].Now()),
		Injected: injected,
	}
	snaps := make([]*metrics.Collector, len(nodes))
	res.Committed = -1
	for i, n := range nodes {
		snaps[i] = n.Metrics()
		res.Stats = append(res.Stats, n.Stats())
		res.Omitted += n.Omitted()
		if _, _, committed := n.Status(); res.Committed < 0 || committed < res.Committed {
			res.Committed = committed
		}
	}
	res.Collector = honestMetrics(s, snaps)
	return res, nil
}

// honestMetrics merges the snapshots of s's honest nodes, indexed by
// node: a churned node is Byzantine to the measures, as the simulator's
// run marks it.
func honestMetrics(s Scenario, snaps []*metrics.Collector) *metrics.Collector {
	churned := make(map[types.NodeID]bool, len(s.Corruptions))
	for _, c := range s.Corruptions {
		churned[c.Node] = true
	}
	var merged *metrics.Collector
	for i, c := range snaps {
		switch {
		case churned[types.NodeID(i)]:
		case merged == nil:
			merged = c.Snapshot()
		default:
			merged.Merge(c)
		}
	}
	return merged
}

// ClusterTable runs one loopback cluster per f in fs (n = 3f+1) for
// perRun of wall clock each and renders the wall-clock sync-latency and
// words measures in a fixed schema: the values are wall-clock (and so
// vary run to run) but the header, row count and row order depend only
// on fs — the real-I/O table that stands next to the simulated ones in
// EXPERIMENTS.md.
func ClusterTable(fs []int, delta, perRun time.Duration, seed int64) (*viz.Table, error) {
	t := &viz.Table{Title: "Wall-clock loopback cluster: sync latency and words (real TCP)"}
	t.Header = []string{"n", "f", "decisions", "sync-lat", "mean-gap", "words", "words/dec", "words/dec/n", "drops"}
	for _, f := range fs {
		res, err := RunCluster(Scenario{
			F:        f,
			Delta:    delta,
			Seed:     seed,
			Duration: perRun,
		})
		if err != nil {
			return nil, err
		}
		col := res.Collector
		gst := types.Time(0).Add(res.Scenario.GST)
		sync := "stalled"
		if d, ok := col.FirstDecisionAfter(gst); ok {
			sync = d.At.Sub(gst).Round(time.Millisecond).String()
		}
		decisions, words := col.DecisionCount(), col.WordsTotal()
		var drops int64
		for _, st := range res.Stats {
			for _, p := range st.Peers {
				drops += p.QueueDrops + p.WriteDrops
			}
		}
		wpd, wpdn := "-", "-"
		if decisions > 0 {
			perDec := float64(words) / float64(decisions)
			wpd = fmt.Sprintf("%.1f", perDec)
			wpdn = fmt.Sprintf("%.2f", perDec/float64(res.Scenario.N))
		}
		t.AddRow(
			fmt.Sprintf("%d", res.Scenario.N),
			fmt.Sprintf("%d", f),
			fmt.Sprintf("%d", decisions),
			sync,
			col.Stats(0, clusterWarmup+1).MeanGap.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", words),
			wpd,
			wpdn,
			fmt.Sprintf("%d", drops),
		)
	}
	t.AddNote("real sockets on 127.0.0.1, Δ=%s, %s per cell, seed %d; values are wall-clock (schema deterministic, values not)", delta, perRun, seed)
	return t, nil
}
