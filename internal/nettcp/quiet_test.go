//go:build go1.24

package nettcp

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lumiere/internal/types"
)

// TestClosedNodeIsQuiet: once Close returns, a node fires no timer and
// sends nothing more, and nothing keeps it reachable. A 4-node SMR
// cluster runs ≈ 300 ms and is closed; over the next second no node's
// send count moves, and every closed Node is collected. A pending timer
// would do both: re-arm the pacemaker, whose sends the collector still
// counts, and keep the node alive through its callbacks.
func TestClosedNodeIsQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	base := types.NewConfig(1, 50*time.Millisecond)
	addrs := freeAddrs(t, base.N)
	nodes := make([]*Node, base.N)
	var collected atomic.Int32
	for i := range nodes {
		n, err := StartNode(NodeConfig{ID: types.NodeID(i), Addrs: addrs, Base: base, Seed: 42, SMR: true})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
		runtime.AddCleanup(n, func(int) { collected.Add(1) }, 0)
	}
	time.Sleep(300 * time.Millisecond)
	sends := make([]int64, len(nodes))
	for i, n := range nodes {
		n.Close()
		sends[i] = n.Metrics().HonestSends()
		if sends[i] == 0 {
			t.Fatalf("node %d sent nothing before Close", i)
		}
	}
	time.Sleep(time.Second)
	for i, n := range nodes {
		if got := n.Metrics().HonestSends(); got != sends[i] {
			t.Errorf("node %d sent %d messages after Close", i, got-sends[i])
		}
	}
	nodes = nil
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < int32(len(sends)) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d closed nodes still reachable", len(sends)-int(collected.Load()), len(sends))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
