package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/hotstuff"
	"lumiere/internal/metrics"
	"lumiere/internal/nettcp"
	"lumiere/internal/network"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// tcpSpec is one loopback-cluster workload. Load is open-loop: one
// goroutine submits command i at its due time t0+(i+1)/rate whether or
// not earlier commands have committed, round-robin over the nodes'
// Submit (no client sockets: the cluster's own n(n−1) links are the
// system under test). Latency runs from the due time, so the wait a
// stall imposes on later commands is counted.
type tcpSpec struct {
	name string
	n, f int
	rate int64
	// churnNode, when ≥ 0, is down (neither sends nor receives) for the
	// [0.2, 0.5) stretch of the measured window.
	churnNode int
}

// tcp-steady-n7: the gob codec, 42 links and ed25519 under steady load at
// about a third of two cores, so latency is protocol-bound and stable.
var tcpSteadyN7 = tcpSpec{name: "tcp-steady-n7", n: 7, f: 2, rate: 1000, churnNode: -1}

// tcp-churn-n4: requests keep arriving on schedule while a replica (a
// leader in its turn) is dead; the tail is set by core's timeouts and
// epoch synchronization, not by CPU.
var tcpChurnN4 = tcpSpec{name: "tcp-churn-n4", n: 4, f: 1, rate: 500, churnNode: 3}

const (
	// tcpBootAllowance is how long after the shared start the cluster has
	// to listen, dial and commit its first command before load begins.
	tcpBootAllowance = 1500 * time.Millisecond
	// tcpWarmup of load is excluded from every metric.
	tcpWarmup = 2 * time.Second
	// tcpDrain is how long after the last submit commits are awaited.
	tcpDrain = 2 * time.Second
	// tcpPayloadPad is the filler appended to every command.
	tcpPayloadPad = 64
	// genLateWarn is the generator lateness (p99) above which a run
	// prints a warning: the offered load then strayed from the schedule
	// by a margin that matters at the scale of Δ. It is a warning, not a
	// failure: with both cores busy the generator goroutine waits 1–8 ms
	// for a processor at p99 on this box, and 2 runs in 20 saw 31 and
	// 56 ms when the whole VM stalled. Latency runs from the due time, so
	// that wait is inside every latency reported.
	genLateWarn = bigDelta / 2
	// tcpClusterSeed derives the PKI and the leader schedule of every
	// cluster. It is fixed: the schedule decides how many of the churned
	// node's leader slots fall inside its downtime, and with the schedule
	// drawn from --seed the tail latency of tcp-churn-n4 was bimodal
	// (61–64Δ on six of ten seeds, 85–86Δ on four). --seed generates the
	// command payloads.
	tcpClusterSeed = 42
)

// clusterNode is what the load generator and the checks need from a
// node; *nettcp.Node is the measured implementation, *tracedNode the
// benchmark's own assembly for traced runs.
type clusterNode interface {
	Submit(payload []byte) error
	Metrics() *metrics.Collector
	Stats() nettcp.Stats
	KV() *statemachine.KV
	CommittedHashes() []hotstuff.Hash
	Close()
}

// loopbackAddrs reserves n distinct 127.0.0.1 ports. There is a small
// reuse race between Close and the nodes' Listen, as in harness.RunCluster.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// cluster is a running loopback cluster.
type cluster struct {
	nodes  []clusterNode
	start  time.Time
	traced []*tracedNode // the same nodes, when the cluster is traced
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
}

// bootCluster starts spec's n nodes with one shared time origin, δ
// injected on every link, and onCommit observing every node's commits.
func bootCluster(spec tcpSpec, churn []adversary.Downtime, traced bool, onCommit func(*hotstuff.Block), onDecision func(types.View)) (*cluster, error) {
	addrs, err := loopbackAddrs(spec.n)
	if err != nil {
		return nil, err
	}
	c := &cluster{start: time.Now()}
	for i := 0; i < spec.n; i++ {
		cfg := nettcp.NodeConfig{
			ID:         types.NodeID(i),
			Addrs:      addrs,
			Base:       types.Config{N: spec.n, F: spec.f, Delta: bigDelta, X: types.DefaultX},
			Seed:       tcpClusterSeed,
			SMR:        true,
			OnCommit:   onCommit,
			OnDecision: onDecision,
			Start:      c.start,
			Link:       network.DelayLink{P: network.Fixed{D: smallDelta}},
			ChaosSeed:  tcpClusterSeed + int64(i) + 1,
		}
		if i == spec.churnNode {
			cfg.Churn = churn
		}
		var node clusterNode
		if traced {
			tn, err := startTracedNode(cfg)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("traced node %d: %w", i, err)
			}
			c.traced = append(c.traced, tn)
			node = tn
		} else {
			n, err := nettcp.StartNode(cfg)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("node %d: %w", i, err)
			}
			node = n
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// dueNs is when command i of a rate-per-second schedule is due, in ns
// since load start: workload.Pacer's exact schedule.
func dueNs(rate, i int64) int64 { return (i + 1) * int64(time.Second) / rate }

// payloadPad generates the filler every command of a run carries.
func payloadPad(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	pad := make([]byte, tcpPayloadPad)
	for i := range pad {
		pad[i] = byte('a' + rng.Intn(26))
	}
	return pad
}

// payloadFor builds command i: a KV SET whose value starts with the
// command's index, which is how a commit is matched to its command.
func payloadFor(i int64, pad []byte) []byte {
	b := make([]byte, 0, 32+len(pad))
	b = append(b, "SET key"...)
	b = strconv.AppendInt(b, i%64, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, i, 10)
	b = append(b, '|')
	return append(b, pad...)
}

// payloadIndex recovers the command index from a payload; probe and
// foreign commands return -1.
func payloadIndex(p []byte) int64 {
	if !bytes.HasPrefix(p, []byte("SET key")) {
		return -1
	}
	sp := bytes.IndexByte(p, ' ')
	rest := p[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return -1
	}
	rest = rest[sp+1:]
	bar := bytes.IndexByte(rest, '|')
	if bar < 0 {
		return -1
	}
	i, err := strconv.ParseInt(string(rest[:bar]), 10, 64)
	if err != nil {
		return -1
	}
	return i
}

// firstDecision boots a cluster and returns the time from boot (listen,
// dial, ed25519 key generation, replica start) to the first decision on
// any node. The first decision rather than the first commit: when the
// first command commits depends on the seed's leader schedule (0.11 to
// 0.39 s over six seeds here), the first QC does not.
func firstDecision(spec tcpSpec) (time.Duration, error) {
	decided := make(chan struct{})
	var once sync.Once
	c, err := bootCluster(spec, nil, false, nil, func(types.View) { once.Do(func() { close(decided) }) })
	if err != nil {
		return 0, err
	}
	defer c.close()
	select {
	case <-decided:
		return time.Since(c.start), nil
	case <-time.After(10 * time.Second):
		return 0, fmt.Errorf("%s: no decision within 10 s of boot", spec.name)
	}
}

// sleepUntil sleeps until t. Sleeping to absolute due times keeps the
// schedule exact: a late wake-up is followed at once by the commands
// that fell due meanwhile, where a time.Ticker drops the ticks.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func runTCP(spec tcpSpec, opt options) (*outcome, error) {
	o := newOutcome()

	if !opt.Trace {
		var setups []float64
		for i := 0; i < 5; i++ {
			d, err := firstDecision(spec)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		o.Values["setup_s"] = median(setups)
		o.Notes = append(o.Notes, spreadNote("setup_s", "s", setups))
	}

	window := time.Duration(opt.Seconds * float64(time.Second))
	total := workload.DueBy(spec.rate, int64(tcpWarmup+window))
	firstMeasured := workload.DueBy(spec.rate, int64(tcpWarmup))
	var churn []adversary.Downtime
	if spec.churnNode >= 0 {
		at := tcpBootAllowance + tcpWarmup
		churn = []adversary.Downtime{{From: at + window/5, To: at + window/2}}
	}

	// commitNs[i] is command i's first commit on any node, in ns since
	// epoch (0 = not committed).
	epoch := time.Now()
	commitNs := make([]atomic.Int64, total)
	onCommit := func(b *hotstuff.Block) {
		at := int64(time.Since(epoch))
		for i := range b.Cmds {
			if idx := payloadIndex(b.Cmds[i].Payload); idx >= 0 && idx < total {
				commitNs[idx].CompareAndSwap(0, at)
			}
		}
	}
	c, err := bootCluster(spec, churn, opt.Trace, onCommit, nil)
	if err != nil {
		return nil, err
	}
	defer c.close()

	t0 := c.start.Add(tcpBootAllowance)
	sleepUntil(t0)
	pad := payloadPad(opt.Seed)
	pacer := workload.NewPacer(spec.rate)
	late := make([]float64, 0, total)
	var meter costMeter
	for i := int64(0); i < total; i++ {
		if i == firstMeasured {
			meter = startMeter()
		}
		due := t0.Add(time.Duration(pacer.NextAtNs()))
		pacer.Take()
		sleepUntil(due)
		late = append(late, float64(time.Since(due))/1e6)
		if err := c.nodes[i%int64(spec.n)].Submit(payloadFor(i, pad)); err != nil {
			return nil, fmt.Errorf("submit %d: %w", i, err)
		}
	}
	windowWall, cpu, allocs := meter.stop()
	time.Sleep(tcpDrain)

	// Service metrics over the measured window; due is command i's due
	// time on commitNs's clock.
	due := func(i int64) int64 { return int64(t0.Sub(epoch)) + dueNs(spec.rate, i) }
	var lats, commits []float64
	var failed, lateCmds int64
	var lastCommit int64
	for i := firstMeasured; i < total; i++ {
		at := commitNs[i].Load()
		if at == 0 {
			failed++
			continue
		}
		l := time.Duration(at - due(i))
		lats = append(lats, inDelta(l))
		commits = append(commits, float64(at))
		if inDelta(l) > sloDelta {
			lateCmds++
		}
		if at > lastCommit {
			lastCommit = at
		}
	}
	o.Attempted, o.Failed = total-firstMeasured, failed
	if failed > 0 {
		o.problemf("%d of %d commands were not committed %s after the last submit", failed, o.Attempted, tcpDrain)
	}
	o.setLatency(summarize(lats))
	o.Values["service.slo_miss_share"] = float64(lateCmds+failed) / float64(o.Attempted)
	o.Values["service.failed_share"] = float64(failed) / float64(o.Attempted)
	o.Values["service.throughput_per_s"] = float64(len(lats)) / windowWall
	// Time without service: the longest stretch of the window, commands
	// due throughout, in which nothing committed.
	sort.Float64s(commits)
	prev, stall := float64(due(firstMeasured)), 0.0
	for _, at := range commits {
		if at-prev > stall {
			stall = at - prev
		}
		prev = at
	}
	o.Values["service.stall_max"] = inDelta(time.Duration(stall))
	// wall_s: host time to serve the schedule — from the first measured
	// command's due time to the last measured command's commit. It grows
	// when a backlog is still draining at the end of the window.
	o.Values["wall_s"] = float64(lastCommit-due(firstMeasured)) / 1e9
	o.Values["runtime.cpu_s"] = cpu
	o.Values["allocs_m"] = allocs

	sort.Float64s(late)
	lateP99 := late[percentileIndex(len(late), 99)]
	o.Values["workload.gen_late_p99_ms"] = lateP99
	o.Values["workload.submitted"] = float64(total)
	if lateP99 > float64(genLateWarn)/1e6 {
		o.notef("WARNING: the generator ran %.2f ms late at p99 (more than %s): the offered load strayed from %d/s", lateP99, genLateWarn, spec.rate)
	}
	o.notef("open loop: %d cmd/s from one goroutine for %s after %s warm-up, %s drain; generator late p99 %.3f ms",
		spec.rate, window, tcpWarmup, tcpDrain, lateP99)
	if len(churn) > 0 {
		o.notef("churn: node %d down [%s, %s) of the measured window", spec.churnNode, window/5, window/2)
	}

	// Stop the nodes before reading their state machines.
	c.close()
	clusterChecks(o, spec, c)
	if opt.Trace {
		tracedClusterMetrics(o, spec, c, opt)
	}
	return o, nil
}

// clusterChecks verifies the cluster's outputs and fills the counters
// read from the nodes: words per decision and the nettcp.* drop counters.
func clusterChecks(o *outcome, spec tcpSpec, c *cluster) {
	var words, decisions int64
	var st struct{ delivered, queue, write, cond, decode, redials, delayed int64 }
	logs := make([][]hotstuff.Hash, len(c.nodes))
	for i, n := range c.nodes {
		col := n.Metrics()
		words += col.WordsTotal()
		decisions += int64(col.DecisionCount())
		logs[i] = n.CommittedHashes()
		s := n.Stats()
		st.delivered += s.Delivered
		st.decode += s.DecodeErrors
		for _, p := range s.Peers {
			st.queue += p.QueueDrops
			st.write += p.WriteDrops
			st.redials += p.Redials
			st.delayed += p.Delayed
			st.cond += p.CondDrops
			// Every loss must be one the workload injected: only the
			// churned node's own downtime may drop envelopes.
			if p.CondDrops > 0 && i != spec.churnNode {
				o.problemf("node %d dropped %d envelopes in its conditioner without being down", i, p.CondDrops)
			}
		}
	}
	if decisions > 0 {
		o.Values["words_per_decision"] = float64(words) / float64(decisions)
	} else {
		o.problemf("no decision on any node")
	}
	o.Values["runtime.cpu_ms_per_decision"] = 1e3 * o.Values["runtime.cpu_s"] / float64(max(decisions, 1))
	o.Values["nettcp.delivered"] = float64(st.delivered)
	o.Values["nettcp.queue_drops"] = float64(st.queue)
	o.Values["nettcp.write_drops"] = float64(st.write)
	o.Values["nettcp.cond_drops"] = float64(st.cond)
	o.Values["nettcp.decode_errors"] = float64(st.decode)
	o.Values["nettcp.redials"] = float64(st.redials)
	o.Values["nettcp.delayed"] = float64(st.delayed)
	if st.decode > 0 {
		o.problemf("%d inbound streams abandoned on a decode error", st.decode)
	}
	if st.queue+st.write > 0 {
		o.problemf("%d queue drops and %d write drops on a loopback cluster below its CPU knee", st.queue, st.write)
	}

	// SMR safety: committed logs are prefix-consistent across nodes, and
	// nodes that committed the same number of blocks hold the same state.
	for i := range logs {
		for j := i + 1; j < len(logs); j++ {
			k := min(len(logs[i]), len(logs[j]))
			for x := 0; x < k; x++ {
				if logs[i][x] != logs[j][x] {
					o.problemf("nodes %d and %d disagree on committed block %d", i, j, x)
					break
				}
			}
			if len(logs[i]) == len(logs[j]) && c.nodes[i].KV().Summary() != c.nodes[j].KV().Summary() {
				o.problemf("nodes %d and %d committed %d blocks each and hold different state", i, j, k)
			}
		}
	}
	o.notef("cluster: n=%d f=%d, %d decisions, %d words, %d envelopes delivered, %d held back by the δ conditioner",
		spec.n, spec.f, decisions, words, st.delivered, st.delayed)
}
