package harness

import (
	"math/rand"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/core"
	"lumiere/internal/metrics"
	"lumiere/internal/network"
	"lumiere/internal/types"
)

const testDelta = 50 * time.Millisecond

// skipInShort gates the paper-scale sweep tests: `go test -short` keeps
// the fast conformance and invariant coverage and skips the long
// steady-state runs (see DESIGN.md §4).
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-scale run in -short mode")
	}
}

// steadyStats runs the eventual tables' steady-state cell — Δ =
// testDelta, δ = Δ/10, fa crashed processors, 240 s — and returns its
// per-decision-window statistics after a 60-s warmup, skipping five
// decisions, as those tables measure them.
func steadyStats(p Protocol, f, fa int, seed int64) metrics.IntervalStats {
	res := Run(Scenario{
		Protocol: p, F: f, Delta: testDelta, DeltaActual: testDelta / 10,
		Corruptions: adversary.CrashFirst(fa), Duration: 240 * time.Second, Seed: seed,
	})
	return res.Collector.Stats(types.Time(0).Add(60*time.Second), 5)
}

// figure1Stall runs Figure 1's cell — a fast network (δ = Δ/20) with
// one non-proposing Byzantine processor, 240 s — and returns the
// longest decision gap after a 30-s warmup in units of Γ.
func figure1Stall(p Protocol, f int, seed int64) float64 {
	res := Run(Scenario{
		Protocol: p, F: f, Delta: testDelta, DeltaActual: testDelta / 20,
		Corruptions: adversary.NonProposingSet(types.NodeID(3*f - 1)), Duration: 240 * time.Second, Seed: seed,
	})
	return float64(res.Collector.Stats(types.Time(0).Add(30*time.Second), 2).MaxGap) / float64(res.Gamma)
}

// TestLumiereSteadyStateRetiresHeavySyncs validates Theorem 1.1(4)'s
// mechanism (Lemma 5.15(2)): once an epoch satisfies the success
// criterion, no honest processor sends epoch-view messages again in a
// fault-free synchronous run.
func TestLumiereSteadyStateRetiresHeavySyncs(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	res, shells := run(Scenario{
		Protocol:        ProtoLumiere,
		F:               2,
		Delta:           testDelta,
		DeltaActual:     testDelta / 10,
		Duration:        240 * time.Second,
		Seed:            7,
		CheckInvariants: true,
	})
	requireNoViolations(t, res)
	heavy := res.Collector.HeavySyncViews(types.Time(0).Add(30 * time.Second))
	if len(heavy) != 0 {
		t.Fatalf("heavy syncs after warmup: %v", heavy)
	}
	if res.DecisionCount() < 1000 {
		t.Fatalf("too few decisions: %d", res.DecisionCount())
	}
	// The success criterion must be observable on every honest node.
	for i, r := range shells {
		lum, ok := r.PM.(*core.Pacemaker)
		if !ok {
			t.Fatalf("node %d: not a lumiere pacemaker", i)
		}
		e := lum.CurrentEpoch()
		if e < 1 {
			t.Fatalf("node %d stuck in epoch %v", i, e)
		}
		if !lum.SuccessOf(e-1) && !lum.SuccessOf(e) {
			t.Errorf("node %d: success criterion not satisfied around epoch %v", i, e)
		}
	}
}

// TestBasicLumierePaysHeavySyncEveryEpoch contrasts §3.4: Basic Lumiere
// performs a Θ(n²) synchronization at every epoch boundary forever.
func TestBasicLumierePaysHeavySyncEveryEpoch(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	res := Run(Scenario{
		Protocol:    ProtoBasic,
		F:           2,
		Delta:       testDelta,
		DeltaActual: testDelta / 10,
		Duration:    120 * time.Second,
		Seed:        7,
	})
	heavy := res.Collector.HeavySyncViews(types.Time(0).Add(30 * time.Second))
	if len(heavy) < 5 {
		t.Fatalf("basic lumiere heavy syncs = %d, want one per epoch", len(heavy))
	}
}

// TestLP22PaysHeavySyncEveryEpoch checks issue (ii) of §1 for LP22.
func TestLP22PaysHeavySyncEveryEpoch(t *testing.T) {
	t.Parallel()
	res := Run(Scenario{
		Protocol:    ProtoLP22,
		F:           2,
		Delta:       testDelta,
		DeltaActual: testDelta / 10,
		Duration:    120 * time.Second,
		Seed:        7,
	})
	heavy := res.Collector.HeavySyncViews(types.Time(0).Add(30 * time.Second))
	if len(heavy) < 5 {
		t.Fatalf("lp22 heavy syncs = %d, want one per epoch", len(heavy))
	}
}

func requireNoViolations(t *testing.T, res *Result) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %s", v)
	}
}

// TestLumiereInvariantsRandomized fuzzes executions: random delay
// distributions, random corruption mixes up to f, staggered joins, late
// GST — Lemmas 5.1-5.3 must hold in every run and liveness must be
// preserved after GST.
func TestLumiereInvariantsRandomized(t *testing.T) {
	t.Parallel()
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := 1 + rng.Intn(3)
		n := 3*f + 1
		fa := rng.Intn(f + 1)
		var corr []adversary.Corruption
		perm := rng.Perm(n)
		for i := 0; i < fa; i++ {
			b := []adversary.Behavior{
				adversary.BehaviorCrash,
				adversary.BehaviorNonProposing,
				adversary.BehaviorLateProposing,
			}[rng.Intn(3)]
			corr = append(corr, adversary.Corruption{
				Node:     types.NodeID(perm[i]),
				Behavior: b,
				Lag:      time.Duration(rng.Intn(200)) * time.Millisecond,
			})
		}
		res := Run(Scenario{
			Protocol:        ProtoLumiere,
			F:               f,
			Delta:           testDelta,
			Delay:           network.Uniform{Min: time.Millisecond, Max: testDelta},
			PreGSTChaos:     rng.Intn(2) == 0,
			GST:             time.Duration(rng.Intn(3)) * time.Second,
			StartStagger:    time.Duration(rng.Intn(500)) * time.Millisecond,
			Corruptions:     corr,
			Duration:        90 * time.Second,
			Seed:            seed * 31,
			CheckInvariants: true,
		})
		requireNoViolations(t, res)
		if res.DecisionCount() == 0 {
			t.Errorf("seed %d (f=%d fa=%d): no decisions", seed, f, fa)
		}
	}
}

// TestBasicLumiereInvariantsRandomized fuzzes the basic variant too.
func TestBasicLumiereInvariantsRandomized(t *testing.T) {
	t.Parallel()
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		res := Run(Scenario{
			Protocol:        ProtoBasic,
			F:               2,
			Delta:           testDelta,
			Delay:           network.Uniform{Min: time.Millisecond, Max: testDelta},
			GST:             time.Second,
			PreGSTChaos:     true,
			StartStagger:    300 * time.Millisecond,
			Duration:        60 * time.Second,
			Seed:            seed,
			CheckInvariants: true,
		})
		requireNoViolations(t, res)
		if res.DecisionCount() == 0 {
			t.Errorf("seed %d: no decisions", seed)
		}
	}
}

// TestFeverGapInvariant validates §3.3 claim (a): with the initial skew
// assumption satisfied, hg_{f+1} never exceeds Γ.
func TestFeverGapInvariant(t *testing.T) {
	t.Parallel()
	f := 2
	n := 3*f + 1
	offsets := make([]time.Duration, n)
	gamma := 2 * time.Duration(types.DefaultX+1) * testDelta
	rng := rand.New(rand.NewSource(4))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(gamma)))
	}
	res := Run(Scenario{
		Protocol:       ProtoFever,
		F:              f,
		Delta:          testDelta,
		DeltaActual:    testDelta / 10,
		InitialOffsets: offsets,
		Duration:       60 * time.Second,
		Seed:           4,
		SampleGaps:     true,
	})
	if res.DecisionCount() == 0 {
		t.Fatal("no decisions")
	}
	for _, s := range res.Gaps.Samples() {
		if g := res.Gaps.GapF1(s); g > res.Gamma {
			t.Fatalf("hg_{f+1} = %v > Γ = %v at %v", g, res.Gamma, s.At)
		}
	}
}

// TestSmoothResponsiveness validates Theorem 1.1(3) empirically at
// f_a = 0: the steady-state decision gap tracks the actual delay δ, not
// the conservative bound Δ.
func TestSmoothResponsiveness(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	for _, p := range []Protocol{ProtoLumiere, ProtoFever} {
		small := steadyStats(p, 2, 0, 11)
		if small.Count == 0 {
			t.Fatalf("%s: no decisions", p)
		}
		// δ = Δ/10 = 5ms; a responsive view pair completes in ~3δ
		// per decision. Anything near Γ (≥ 400ms) means the clock,
		// not the network, is pacing the protocol.
		if small.MeanGap > 100*time.Millisecond {
			t.Errorf("%s: mean gap %v not responsive (δ=5ms)", p, small.MeanGap)
		}
	}
}

// TestFigure1Shape asserts the paper's Figure 1 comparison: LP22's stall
// from a single Byzantine leader grows with n, Lumiere's does not.
func TestFigure1Shape(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	lpSmall := figure1Stall(ProtoLP22, 1, 9)
	lpBig := figure1Stall(ProtoLP22, 5, 9)
	lmSmall := figure1Stall(ProtoLumiere, 1, 9)
	lmBig := figure1Stall(ProtoLumiere, 5, 9)
	t.Logf("lp22: %0.2fΓ -> %0.2fΓ; lumiere: %0.2fΓ -> %0.2fΓ",
		lpSmall, lpBig, lmSmall, lmBig)
	if lpBig < lpSmall+1.5 {
		t.Errorf("LP22 stall did not grow with n: %0.2fΓ -> %0.2fΓ", lpSmall, lpBig)
	}
	// Lumiere's stall stays bounded by ~4Γ (the 4-view boundary block)
	// at every size.
	if lmBig > 4.6 {
		t.Errorf("Lumiere stall too large: %0.2fΓ", lmBig)
	}
	if lmBig > lmSmall+1 {
		t.Errorf("Lumiere stall grew with n: %0.2fΓ -> %0.2fΓ", lmSmall, lmBig)
	}
}

// TestDeterminism: identical scenarios yield identical executions.
func TestDeterminism(t *testing.T) {
	t.Parallel()
	run := func() (int, int64, uint64) {
		res := Run(Scenario{
			Protocol:    ProtoLumiere,
			F:           2,
			Delta:       testDelta,
			Delay:       network.Uniform{Min: time.Millisecond, Max: testDelta},
			Corruptions: adversary.CrashFirst(1),
			Duration:    30 * time.Second,
			Seed:        123,
		})
		return res.DecisionCount(), res.Collector.HonestSends(), res.Events
	}
	d1, m1, e1 := run()
	d2, m2, e2 := run()
	if d1 != d2 || m1 != m2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", d1, m1, e1, d2, m2, e2)
	}
}

// TestViewSynchronizationConditions checks the §2 BVS obligations on a
// post-run snapshot: honest processors' views agree up to the synchrony
// slack, and decisions continue after GST (condition (2)).
func TestViewSynchronizationConditions(t *testing.T) {
	t.Parallel()
	res := Run(Scenario{
		Protocol:        ProtoLumiere,
		F:               2,
		Delta:           testDelta,
		DeltaActual:     testDelta / 10,
		GST:             2 * time.Second,
		PreGSTChaos:     true,
		StartStagger:    time.Second,
		Duration:        90 * time.Second,
		Seed:            5,
		CheckInvariants: true,
	})
	requireNoViolations(t, res)
	if d, ok := res.Collector.FirstDecisionAfter(res.GST); !ok {
		t.Fatal("no decision after GST")
	} else if d.At.Sub(res.GST) > 10*time.Second {
		t.Fatalf("first decision %v after GST", d.At.Sub(res.GST))
	}
	// Final views within one epoch of each other in the steady state.
	var minV, maxV types.View = 1 << 60, -1
	for _, v := range res.FinalViews {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV-minV > 70 {
		t.Fatalf("final views spread too wide: [%v, %v]", minV, maxV)
	}
}

// TestAllProtocolsLiveWithMaxCrashes: every protocol stays live with
// exactly f crashed processors.
func TestAllProtocolsLiveWithMaxCrashes(t *testing.T) {
	t.Parallel()
	for _, p := range AllProtocols {
		res := Run(Scenario{
			Protocol:    p,
			F:           2,
			Delta:       testDelta,
			DeltaActual: testDelta / 10,
			Corruptions: adversary.CrashFirst(2),
			Duration:    60 * time.Second,
			Seed:        3,
		})
		if res.DecisionCount() == 0 {
			t.Errorf("%s: no decisions with f crashes", p)
		}
	}
}

// TestEventualScalingShape: per-decision message ceilings are O(n) for
// Lumiere/Fever but Ω(n²) for LP22 (amortized heavy syncs land in some
// window).
func TestEventualScalingShape(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	lm4 := steadyStats(ProtoLumiere, 1, 1, 21)
	lm16 := steadyStats(ProtoLumiere, 5, 1, 21)
	lp4 := steadyStats(ProtoLP22, 1, 1, 21)
	lp16 := steadyStats(ProtoLP22, 5, 1, 21)
	t.Logf("lumiere: %0.0f -> %0.0f; lp22: %0.0f -> %0.0f", lm4.MaxMsgs, lm16.MaxMsgs, lp4.MaxMsgs, lp16.MaxMsgs)
	if lm4.Count == 0 || lm16.Count == 0 || lp4.Count == 0 || lp16.Count == 0 {
		t.Fatal("missing decisions")
	}
	// n quadrupled: LP22's worst window (containing a heavy sync)
	// should grow ~16x; Lumiere's ~4x. Compare growth ratios with
	// slack.
	lmGrowth := lm16.MaxMsgs / lm4.MaxMsgs
	lpGrowth := lp16.MaxMsgs / lp4.MaxMsgs
	if lpGrowth < 2*lmGrowth {
		t.Errorf("expected LP22 per-window growth (%.1fx) to far exceed Lumiere's (%.1fx)", lpGrowth, lmGrowth)
	}
}
