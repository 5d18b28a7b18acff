package nettcp

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/core"
	"lumiere/internal/hotstuff"
	"lumiere/internal/msg"
	"lumiere/internal/types"
)

// freeAddrs reserves n distinct localhost ports. There is a small reuse
// race between Close and the node's Listen, acceptable in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestClusterViewSync boots a real 4-node TCP cluster running Lumiere
// over the plain view core and waits for consensus decisions.
func TestClusterViewSync(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	base := types.NewConfig(1, 200*time.Millisecond)
	addrs := freeAddrs(t, base.N)
	decided := make(chan types.View, 1024)
	nodes := make([]*Node, base.N)
	for i := 0; i < base.N; i++ {
		n, err := StartNode(NodeConfig{
			ID:         types.NodeID(i),
			Addrs:      addrs,
			Base:       base,
			Seed:       99,
			OnDecision: func(v types.View) { decided <- v },
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
		defer n.Close()
	}
	deadline := time.After(30 * time.Second)
	got := 0
	for got < 10 {
		select {
		case <-decided:
			got++
		case <-deadline:
			t.Fatalf("only %d decisions before deadline", got)
		}
	}
	for i, n := range nodes {
		v, e, _ := n.Status()
		if v < 0 || e < 0 {
			t.Errorf("node %d stuck at view %v epoch %v", i, v, e)
		}
	}
}

// TestClusterSMR boots a TCP cluster running full HotStuff SMR, submits
// commands, and checks replicated execution and log consistency.
func TestClusterSMR(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	nodes := startSMRCluster(t, nil)
	for i := 0; i < 20; i++ {
		target := nodes[i%len(nodes)]
		if err := target.Submit([]byte(fmt.Sprintf("SET key%d value%d", i, i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, n := range nodes {
			if v, ok := n.KV().Get("key19"); !ok || v != "value19" {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i, n := range nodes {
				_, _, c := n.Status()
				t.Logf("node %d committed=%d kv=%d", i, c, n.KV().Len())
			}
			t.Fatal("cluster did not replicate all commands in time")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Commit logs are prefix-consistent.
	logs := make([][][32]byte, len(nodes))
	minLen := 1 << 30
	for i, n := range nodes {
		logs[i] = n.CommittedHashes()
		if len(logs[i]) < minLen {
			minLen = len(logs[i])
		}
	}
	for i := 1; i < len(logs); i++ {
		for j := 0; j < minLen; j++ {
			if logs[i][j] != logs[0][j] {
				t.Fatalf("commit logs diverge at %d", j)
			}
		}
	}
}

// startSMRCluster boots a 4-node SMR cluster, closed when the test ends.
// onCommit, if set, observes every node's commits under that node's lock.
func startSMRCluster(t *testing.T, onCommit func(node types.NodeID, b *hotstuff.Block)) []*Node {
	t.Helper()
	base := types.NewConfig(1, 200*time.Millisecond)
	addrs := freeAddrs(t, base.N)
	nodes := make([]*Node, base.N)
	for i := 0; i < base.N; i++ {
		id := types.NodeID(i)
		cfg := NodeConfig{ID: id, Addrs: addrs, Base: base, Seed: 42, SMR: true}
		if onCommit != nil {
			cfg.OnCommit = func(b *hotstuff.Block) { onCommit(id, b) }
		}
		n, err := StartNode(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
		t.Cleanup(n.Close)
	}
	return nodes
}

// TestClusterVerificationsPerDecision counts the ed25519 verifications of
// a 4-node SMR cluster (n=4, f=1, quorum q=3, VC threshold f+1=2) over
// ≈ 1 s. Each node's suite remembers what it signed or verified, so each
// signature costs each node at most one check:
//   - per view, the QC's q votes are checked once by every node but their
//     signers — the leader as it tallies them, the rest in the QC — which
//     is q(n−1) = 9; the leader's Aggregate and its check of its own QC
//     are lookups;
//   - per initial view (every second view), the VC's f+1 view messages
//     cost at most (f+1)(n−1) = 6 the same way, 3 per decision.
//
// That is at most 12 per decision, and the bound is 15 (25 % slack for
// boot and for views that fail). Checking each signature wherever it
// appears, as Aggregate and a node's check of its own certificate once
// did, costs q(n+2) = 18 per view plus the VC's, ≈ 20 per decision.
func TestClusterVerificationsPerDecision(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	const bound = 15.0
	nodes := startSMRCluster(t, nil)
	decisions := func() (d int) {
		for _, n := range nodes {
			d += n.Metrics().DecisionCount()
		}
		return d
	}
	start := time.Now()
	waitFor(t, 30*time.Second, "a second and 20 decisions", func() bool {
		return time.Since(start) >= time.Second && decisions() >= 20
	})
	var verified int64
	for _, n := range nodes {
		n.Close()
		verified += n.Stats().Verifications
	}
	d := decisions()
	per := float64(verified) / float64(d)
	t.Logf("%d ed25519 verifications over %d decisions: %.2f per decision (bound %.0f)", verified, d, per, bound)
	if per > bound {
		t.Fatalf("%.2f verifications per decision, want ≤ %.0f", per, bound)
	}
}

// TestClusterSubmitReachesNextLeader: commands submitted at one node reach
// the mempools of the next leaders, so they commit in blocks that other
// nodes propose — not only when the submitting node next leads.
func TestClusterSubmitReachesNextLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	const cmds = 20
	var mu sync.Mutex
	blockOf := make(map[uint64]types.View) // the view of the block that executed each node-0 command at node 1
	nodes := startSMRCluster(t, func(node types.NodeID, b *hotstuff.Block) {
		if node != 1 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, c := range b.Cmds {
			if _, done := blockOf[c.ID]; !done && hotstuff.Submitter(c.ID) == 0 {
				blockOf[c.ID] = b.View
			}
		}
	})
	waitFor(t, 30*time.Second, "the cluster to leave its first views", func() bool {
		v, _, _ := nodes[0].Status()
		return v >= 4
	})
	for i := 0; i < cmds; i++ {
		if err := nodes[0].Submit([]byte(fmt.Sprintf("SET key%d value%d", i, i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, 30*time.Second, "node 1 to commit every command", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(blockOf) == cmds
	})
	// The commit hook takes mu under node 1's lock: never hold both here.
	mu.Lock()
	views := make([]types.View, 0, len(blockOf))
	for _, v := range blockOf {
		views = append(views, v)
	}
	mu.Unlock()
	nodes[1].mu.Lock()
	elsewhere := 0
	for _, v := range views {
		if nodes[1].pm.Leader(v) != 0 {
			elsewhere++
		}
	}
	nodes[1].mu.Unlock()
	t.Logf("%d of %d commands submitted at node 0 committed in other leaders' blocks", elsewhere, cmds)
	if elsewhere == 0 {
		t.Fatal("every command waited for its submitting node to lead")
	}
}

// TestForgedRequestDropped: a peer that sends a request in another node's
// ID namespace — here the victim's next ID, ahead of the victim — is
// ignored, so the ID dedupe cannot drop the victim's own command.
func TestForgedRequestDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	const forger, victim = 3, 2
	nodes := startSMRCluster(t, nil)
	nextID := uint64(victim)<<48 + 1 // the victim has submitted nothing yet
	nodes[forger].mu.Lock()
	nodes[forger].transport.Broadcast(&msg.Request{ID: nextID, Payload: []byte("SET forged 1")})
	nodes[forger].mu.Unlock()
	time.Sleep(500 * time.Millisecond) // let the forgery land everywhere first
	if err := nodes[victim].Submit([]byte("SET victim 1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "every node to apply the victim's command", func() bool {
		for _, n := range nodes {
			if v, ok := n.KV().Get("victim"); !ok || v != "1" {
				return false
			}
		}
		return true
	})
	for i, n := range nodes {
		if _, ok := n.KV().Get("forged"); ok {
			t.Fatalf("node %d applied the forged request", i)
		}
	}
}

// TestRejoinLearnsChainHead: a node down from the start leads views 14-17
// (the schedule's block-boundary leader), so the others stall there and
// send it no QC. Its rejoin — what a churn downtime's end runs — asks for
// the chain's head, and it holds the others' highest QC well before its
// views time out, instead of proposing from genesis.
func TestRejoinLearnsChainHead(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	const seed = 42
	base := types.NewConfig(1, 100*time.Millisecond) // Γ = 1 s: views 14-17 hold the others ≥ 2 s
	down := core.NewPermSchedule(base.N, seed+7).Leader(14)
	live := (down + 1) % types.NodeID(base.N)
	addrs := freeAddrs(t, base.N)
	nodes := make([]*Node, base.N)
	for i := range nodes {
		cfg := NodeConfig{ID: types.NodeID(i), Addrs: addrs, Base: base, Seed: seed, SMR: true}
		if cfg.ID == down {
			cfg.Churn = []adversary.Downtime{{From: 0, To: time.Hour}}
		}
		n, err := StartNode(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
		t.Cleanup(n.Close)
	}
	highView := func(n *Node) types.View {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.hs.HighView()
	}
	waitFor(t, 20*time.Second, "the others to stall in the downed node's views", func() bool {
		v, _, _ := nodes[live].Status()
		return v >= 14
	})
	head := highView(nodes[live])
	if v, _, _ := nodes[live].Status(); v > 17 || head < 13 {
		t.Fatalf("node %d is in view %d with highQC %d, want a view in 14-17 and highQC ≥ 13", live, v, head)
	}
	if got := highView(nodes[down]); got != types.NoView {
		t.Fatalf("node %d learned a QC (view %d) while down", down, got)
	}
	nodes[down].mu.Lock() // rejoin runs under the node lock, as a Wall timer
	nodes[down].rejoin()
	nodes[down].mu.Unlock()
	waitFor(t, 500*time.Millisecond, "the rejoined node to learn the others' highest QC", func() bool {
		return highView(nodes[down]) >= head
	})
}

// TestStartNodeRejectsUnknownProtocol: a protocol internal/stack does not
// know is an error naming it, returned before the node listens — this
// test holds the node's address, so a listen would fail otherwise.
func TestStartNodeRejectsUnknownProtocol(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := types.NewConfig(1, 50*time.Millisecond)
	addrs := append([]string{ln.Addr().String()}, freeAddrs(t, base.N-1)...)
	n, err := StartNode(NodeConfig{ID: 0, Addrs: addrs, Base: base, Protocol: "pbft"})
	if err == nil {
		n.Close()
		t.Fatal("StartNode accepted an unknown protocol")
	}
	if !strings.Contains(err.Error(), `unknown protocol "pbft"`) {
		t.Fatalf("err = %v, want one naming the protocol", err)
	}
}

// TestChurnArmedOnStartOrigin: churn downtimes count from NodeConfig.Start,
// as GST and every metric timestamp do, not from the StartNode call. A
// node whose origin is 1 s past is down on return from StartNode for a
// downtime over 0.5-2 s, and up for one that ended at 0.6 s.
func TestChurnArmedOnStartOrigin(t *testing.T) {
	base := types.NewConfig(1, 50*time.Millisecond)
	addrs := freeAddrs(t, base.N)
	start := time.Now().Add(-time.Second)
	for _, tc := range []struct {
		down adversary.Downtime
		want bool
	}{
		{adversary.Downtime{From: 500 * time.Millisecond, To: 2 * time.Second}, true},
		{adversary.Downtime{From: 100 * time.Millisecond, To: 600 * time.Millisecond}, false},
	} {
		n, err := StartNode(NodeConfig{ID: 0, Addrs: addrs, Base: base, Seed: 1, Start: start,
			Churn: []adversary.Downtime{tc.down}})
		if err != nil {
			t.Fatal(err)
		}
		got := n.cond.isDown()
		n.Close()
		if got != tc.want {
			t.Errorf("downtime %v-%v on an origin 1 s past: down = %v at return, want %v",
				tc.down.From, tc.down.To, got, tc.want)
		}
	}
}

// TestStartNodeListenFailureLeaksNothing: a node that cannot listen
// returns an error and leaves no goroutine behind (the self-send worker
// starts before the listener).
func TestStartNodeListenFailureLeaksNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := types.NewConfig(1, 50*time.Millisecond)
	addrs := append([]string{ln.Addr().String()}, freeAddrs(t, base.N-1)...)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if n, err := StartNode(NodeConfig{ID: 0, Addrs: addrs, Base: base}); err == nil {
			n.Close()
			t.Fatal("StartNode listened on an address in use")
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before five failed starts, %d after", before, after)
	}
}
