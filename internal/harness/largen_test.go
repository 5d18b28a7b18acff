package harness

import (
	"testing"
	"time"
)

// TestSparseMetricsKeepsTotals: a sparse-metrics run reports the same
// totals and decision log as the exact run it approximates.
func TestSparseMetricsKeepsTotals(t *testing.T) {
	s := eventualScenario(ProtoLumiere, 2, 1, 7)
	s.Duration = 8 * time.Second
	exact := Run(s)
	s.SparseMetrics = 64 // absurdly tight cap to force heavy coalescing
	sparse := Run(s)
	if exact.Collector.WordsTotal() != sparse.Collector.WordsTotal() ||
		exact.Collector.HonestSends() != sparse.Collector.HonestSends() ||
		exact.DecisionCount() != sparse.DecisionCount() {
		t.Fatalf("sparse run drifted: exact %v, sparse %v", exact.Collector, sparse.Collector)
	}
	if exact.Events != sparse.Events {
		t.Fatalf("sparse metrics changed the execution: %d vs %d events", exact.Events, sparse.Events)
	}
}

// TestLargeNSmoke is the CI largen-smoke entry point: one short n=256
// cell per protocol, exercising the multicast broadcast expansion,
// bitset quorum tracking and sparse metrics at a size where per-view
// maps and per-recipient heap events used to dominate. Kept fast enough
// (a few seconds of simulated time) to run under the race detector.
func TestLargeNSmoke(t *testing.T) {
	for _, p := range LargeNProtocols {
		s := LargeNScenario(p, 256, 7)
		s.Duration = 5 * time.Second
		res := Run(s)
		if res.Aborted || res.DecisionCount() == 0 {
			t.Fatalf("%s n=256: aborted=%v decisions=%d", p, res.Aborted, res.DecisionCount())
		}
	}
}

// TestLargeNScenarioRuns: one mid-sized massive-n cell per protocol
// completes, decides, and stays within the sparse-metrics cap.
func TestLargeNScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n cell in -short mode")
	}
	for _, p := range LargeNProtocols {
		s := LargeNScenario(p, 64, 42)
		s.Duration = 10 * time.Second
		res := Run(s)
		if res.Aborted || res.DecisionCount() == 0 {
			t.Fatalf("%s n=64: aborted=%v decisions=%d", p, res.Aborted, res.DecisionCount())
		}
		if s.SparseMetrics == 0 {
			t.Fatalf("LargeNScenario lost its sparse cap")
		}
	}
}
