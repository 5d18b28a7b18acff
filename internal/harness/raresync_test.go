package harness

import (
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// TestRareSyncLiveness: RareSync stays live with f crashes.
func TestRareSyncLiveness(t *testing.T) {
	t.Parallel()
	res := Run(Scenario{
		Protocol:    ProtoRareSync,
		F:           2,
		Delta:       testDelta,
		DeltaActual: testDelta / 10,
		Corruptions: adversary.CrashFirst(2),
		Duration:    60 * time.Second,
		Seed:        9,
	})
	if res.DecisionCount() == 0 {
		t.Fatal("raresync made no decisions")
	}
}

// TestRareSyncNotResponsive: unlike every other protocol here, RareSync's
// decision gap is pinned at Γ regardless of the actual network delay —
// the paper's §6 distinction between RareSync and LP22.
func TestRareSyncNotResponsive(t *testing.T) {
	t.Parallel()
	res := Run(Scenario{
		Protocol:    ProtoRareSync,
		F:           2,
		Delta:       testDelta,
		DeltaActual: time.Millisecond, // network 50x faster than Δ
		Duration:    120 * time.Second,
		Seed:        9,
	})
	stats := res.Collector.Stats(types.Time(0).Add(20*time.Second), 5)
	if stats.Count == 0 {
		t.Fatal("no decisions")
	}
	// Views are clock-scheduled: the mean gap must be ~Γ = 4Δ, not
	// ~3δ = 3ms.
	if stats.MeanGap < res.Gamma/2 {
		t.Fatalf("raresync responded at network speed (gap %v, Γ %v) — it must not", stats.MeanGap, res.Gamma)
	}
	// Contrast: LP22 in the same setting is responsive within epochs.
	lp := Run(Scenario{
		Protocol:    ProtoLP22,
		F:           2,
		Delta:       testDelta,
		DeltaActual: time.Millisecond,
		Duration:    120 * time.Second,
		Seed:        9,
	})
	lpStats := lp.Collector.Stats(types.Time(0).Add(20*time.Second), 5)
	if lpStats.MeanGap >= stats.MeanGap {
		t.Fatalf("LP22 (%v) should beat RareSync (%v) on a fast network", lpStats.MeanGap, stats.MeanGap)
	}
}

// TestRareSyncHeavySyncEveryEpoch: like LP22, one Θ(n²) sync per epoch
// forever.
func TestRareSyncHeavySyncEveryEpoch(t *testing.T) {
	t.Parallel()
	res := Run(Scenario{
		Protocol:    ProtoRareSync,
		F:           2,
		Delta:       testDelta,
		DeltaActual: testDelta / 10,
		Duration:    120 * time.Second,
		Seed:        9,
	})
	heavy := res.Collector.HeavySyncViews(types.Time(0).Add(30 * time.Second))
	if len(heavy) < 5 {
		t.Fatalf("raresync heavy syncs = %d, want one per epoch", len(heavy))
	}
}

// TestTwoPhaseSMRCommitsFasterAndConsistently: the HotStuff-2 style
// two-chain rule commits with one less view of lag and stays consistent.
func TestTwoPhaseSMRCommitsFasterAndConsistently(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	run := func(twoPhase bool) (*Result, int) {
		res := Run(Scenario{
			Protocol:    ProtoLumiere,
			F:           1,
			Delta:       testDelta,
			DeltaActual: testDelta / 10,
			Duration:    30 * time.Second,
			Seed:        4,
			SMR:         true,
			SMRTwoPhase: twoPhase,
			Workload:    &workload.Config{Rate: 100},
		})
		return res, requireConsistentCommits(t, res)
	}
	res3, c3 := run(false)
	res2, c2 := run(true)
	if c2 == 0 || c3 == 0 {
		t.Fatal("no commits")
	}
	// Same decision stream, but the two-chain rule converts one more
	// block at the tail and never fewer overall.
	if c2 < c3 {
		t.Fatalf("two-phase committed fewer blocks (%d) than three-phase (%d)", c2, c3)
	}
	if res2.DecisionCount() == 0 || res3.DecisionCount() == 0 {
		t.Fatal("no decisions")
	}
}
