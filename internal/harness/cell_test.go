package harness

import (
	"runtime"
	"testing"
	"time"

	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// Whole-cell allocation gates: a cell is built by Run from its
// constructors and dropped with it, so each gate measures one complete
// cell, setup included. An unmeasured first run warms whatever the
// process initializes once, so the measured run counts the cell alone.

// TestRunInAllocsSteadyCell pins the per-cell allocation budget of a
// chaos-table cell: a regression that reintroduces per-cell setup churn
// or per-send allocation crosses it. The budget has generous headroom
// over the measured value (see EXPERIMENTS.md perf notes). RunIn, the
// repository benchmark's entry point, is Run.
func TestRunInAllocsSteadyCell(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement in -short mode")
	}
	// The chaos table's Cogsworth partition-heal cell at f = 1: nodes 0
	// and 1 cut off until GST = 2s.
	gst := 2 * time.Second
	s := Scenario{
		Name: "chaos-partition-heal-cogsworth-f1", Protocol: ProtoCogsworth, F: 1,
		Delta: testDelta, DeltaActual: testDelta / 10, GST: gst,
		Duration:   gst + 60*ProtoCogsworth.Gamma(testDelta),
		Partitions: [][]types.NodeID{{0, 1}}, Seed: 42,
	}
	Run(s)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(s)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	// Measured ~13k allocs per cell (message structs, engine maps, the
	// layers' construction). Budget: nearly 4x headroom.
	const budget = 50_000
	if allocs > budget {
		t.Fatalf("chaos cell performed %d allocs, budget %d", allocs, budget)
	}
	t.Logf("chaos cell: %d allocs (budget %d)", allocs, budget)
}

// TestLumiereCellSetupBytes pins what assembling a Lumiere cell costs at
// n = 256: a LargeNScenario cell cut to 1 ms, which is almost all setup.
// The replicas share one §4 leader schedule (0.71 MB measured); a
// schedule per replica, each with its own rng and permutation blocks,
// costs 2.01 MB, over the 1 MB budget.
func TestLumiereCellSetupBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement in -short mode")
	}
	s := LargeNScenario(ProtoLumiere, 256, 42)
	s.Duration = time.Millisecond
	Run(s)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(s)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	const budget = 1 << 20
	if bytes > budget {
		t.Fatalf("n=256 Lumiere cell allocated %d bytes, budget %d", bytes, budget)
	}
	t.Logf("n=256 Lumiere cell: %d bytes (budget %d)", bytes, budget)
}

// smrCell is the benchmark's sim-smr-n4 cell cut to two simulated
// seconds.
func smrCell() Scenario {
	return Scenario{
		Name:     "smr-n4",
		Protocol: ProtoLumiere, N: 4, F: 1,
		Delta: 50 * time.Millisecond, DeltaActual: 5 * time.Millisecond,
		Duration: 2 * time.Second, Seed: 42,
		SMR: true, SMRBatchSize: 256,
		Workload: &workload.Config{Rate: 6000, Clients: 1_000_000, PayloadPad: 64},
	}
}

// TestSMRCellAllocs pins what a committed command costs on the SMR path:
// the benchmark's sim-smr-n4 cell (Lumiere + chained HotStuff, n=4, 6000
// cmd/s in blocks of up to 256, KV) cut to two simulated seconds, setup
// included. Applying a SET allocates nothing (the KV copies it into its
// byte blocks); blocks, proposals and the stores' growth amortize to
// about a third of an object (0.30 measured). One string per replica per
// SET, as the KV's former map took, costs 4.5; hashing a block per use,
// copying payloads out of proposals or splitting commands into strings
// again costs 27.8.
func TestSMRCellAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement in -short mode")
	}
	s := smrCell()
	Run(s)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Run(s)
	runtime.ReadMemStats(&after)
	commits := res.Collector.CommitCount()
	if commits < 10_000 {
		t.Fatalf("only %d commands committed", commits)
	}
	perCommit := float64(after.Mallocs-before.Mallocs) / float64(commits)
	const budget = 1
	if perCommit > budget {
		t.Fatalf("SMR cell: %.2f allocs per committed command (%d commits), budget %d", perCommit, commits, budget)
	}
	t.Logf("SMR cell: %.2f allocs per committed command (%d commits, budget %d)", perCommit, commits, budget)
}
