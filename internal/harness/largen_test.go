package harness

import (
	"testing"
	"time"
)

// largeNProtocols are the massive-n table's protocols.
var largeNProtocols = []Protocol{ProtoLP22, ProtoLumiere}

// TestLargeNSmoke is the CI largen-smoke entry point: one short n=256
// cell per protocol, exercising the multicast broadcast expansion and
// bitset quorum tracking at a size where per-view
// maps and per-recipient heap events used to dominate. Kept fast enough
// (a few seconds of simulated time) to run under the race detector.
func TestLargeNSmoke(t *testing.T) {
	for _, p := range largeNProtocols {
		s := LargeNScenario(p, 256, 7)
		s.Duration = 5 * time.Second
		res := Run(s)
		if res.Aborted || res.DecisionCount() == 0 {
			t.Fatalf("%s n=256: aborted=%v decisions=%d", p, res.Aborted, res.DecisionCount())
		}
	}
}

// TestLargeNScenarioRuns: one mid-sized massive-n cell per protocol
// completes and decides.
func TestLargeNScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n cell in -short mode")
	}
	for _, p := range largeNProtocols {
		s := LargeNScenario(p, 64, 42)
		s.Duration = 10 * time.Second
		res := Run(s)
		if res.Aborted || res.DecisionCount() == 0 {
			t.Fatalf("%s n=64: aborted=%v decisions=%d", p, res.Aborted, res.DecisionCount())
		}
	}
}
