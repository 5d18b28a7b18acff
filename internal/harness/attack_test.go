package harness

import (
	"strings"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/crypto"
	"lumiere/internal/types"
)

// TestAttackSweepAllDecided checks that every attacked cell stays live:
// all four strategies are model-legal (≤ f corrupted processors, the §2
// delivery clamp respected), so every protocol must still synchronize
// after GST. Words must be accounted in every cell.
func TestAttackSweepAllDecided(t *testing.T) {
	t.Parallel()
	rep := AttackSweep(1, 7, SweepOptions{})
	if want := len(AllProtocols) * len(AttackSpecs()); len(rep.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), want)
	}
	if !rep.AllDecided() {
		for _, c := range rep.Cells {
			if !c.Decided {
				t.Errorf("%s under %s stalled after GST", c.Protocol, c.Attack)
			}
		}
	}
	for _, c := range rep.Cells {
		if c.TotalWords <= 0 || (c.Decided && c.WindowWords <= 0) {
			t.Errorf("%s under %s: words not accounted (%d total, %d window)",
				c.Protocol, c.Attack, c.TotalWords, c.WindowWords)
		}
	}
}

// TestComplexitySaturateQuadraticBound is the regression gate on the
// saturation attack: protocol-legal spam may drive honest work up, but
// the per-view honest word cost must stay within a constant multiple of
// n² for every protocol — the O(n²) ceiling the paper's protocols all
// guarantee per view change. Measured values sit below 2.3·n²; the gate
// is 4·n².
func TestComplexitySaturateQuadraticBound(t *testing.T) {
	t.Parallel()
	fs := []int{1, 2}
	if testing.Short() {
		fs = []int{1}
	}
	for _, f := range fs {
		for _, p := range AllProtocols {
			s := attackScenario(p, f, adversary.AttackSpec{Name: adversary.AttackSaturate}, 42)
			res := Run(s)
			var maxV types.View
			for i, v := range res.FinalViews {
				if res.Cfg.N-i <= f {
					continue // the strategic tail is Byzantine
				}
				if v != types.NoView && v > maxV {
					maxV = v
				}
			}
			if maxV <= 0 {
				t.Fatalf("%s f=%d: no honest view progress under saturation", p, f)
			}
			perView := float64(res.Collector.WordsTotal()) / float64(maxV+1)
			bound := 4 * float64(res.Cfg.N*res.Cfg.N)
			if perView > bound {
				t.Errorf("%s f=%d: %.1f words per view under saturation, above the %.0f = 4n² gate",
					p, f, perView, bound)
			}
		}
	}
}

// TestEventualWordsLinearInFaults pins the headline word-complexity
// shape on the eventual-scaling scenario family: normalized per n,
// Lumiere's max words per decision window stays ~flat as n grows
// (eventual communication linear in n, driven by actual faults), while
// LP22's and NK20's grow with n (their Θ(n²) synchronizations never
// retire). At fixed n, Lumiere's word count grows with the number of
// actual crash faults f_a. Seeded runs are deterministic, so the
// asserted margins are exact for this seed.
func TestEventualWordsLinearInFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("long steady-state sweeps")
	}
	t.Parallel()
	perN := func(p Protocol, f, fa int) float64 {
		r := steadyStats(p, f, fa, DeriveSeed(42, f))
		if r.Count == 0 {
			t.Fatalf("%s f=%d fa=%d stalled", p, f, fa)
		}
		return r.MaxWords / float64(3*f+1)
	}
	// n-scaling at f_a = 1: words/n ratio between n=16 and n=4.
	lum := perN(ProtoLumiere, 5, 1) / perN(ProtoLumiere, 1, 1)
	lp := perN(ProtoLP22, 5, 1) / perN(ProtoLP22, 1, 1)
	nk := perN(ProtoNK20, 5, 1) / perN(ProtoNK20, 1, 1)
	if lum > 2.0 {
		t.Errorf("lumiere words/n grew %.2fx from n=4 to n=16, want ~flat (≤ 2.0)", lum)
	}
	if lp < 2.5 || nk < 2.5 {
		t.Errorf("lp22/nk20 words/n grew only %.2fx/%.2fx, want ≥ 2.5 (quadratic words)", lp, nk)
	}
	// f_a-scaling at n=10: more actual faults, more Lumiere words.
	w0 := steadyStats(ProtoLumiere, 3, 0, 42).MaxWords
	w2 := steadyStats(ProtoLumiere, 3, 2, 42).MaxWords
	if w2 <= w0 {
		t.Errorf("lumiere max words did not grow with actual faults: fa=0 %.0f, fa=2 %.0f", w0, w2)
	}
}

// TestStrategicNodeSelection checks the harness glue: strategy nodes
// are the highest free IDs, the input slice is never mutated, and
// Validate rejects corrupting more than f processors.
func TestStrategicNodeSelection(t *testing.T) {
	t.Parallel()
	cfg := types.NewConfig(2, 100*time.Millisecond) // n=7, f=2
	base := make([]adversary.Corruption, 0, 4)
	base = append(base, adversary.Corruption{Node: 6, Behavior: adversary.BehaviorCrash})
	out := withStrategicNodes(base, cfg, 1)
	if len(out) != 2 {
		t.Fatalf("corruptions = %d, want crash + strategic", len(out))
	}
	if out[1].Node != 5 || out[1].Behavior != adversary.BehaviorStrategic {
		t.Fatalf("strategic corruption = %+v, want node 5 (highest free)", out[1])
	}
	if &base[0] == &out[0] && cap(base) >= 2 {
		t.Fatal("withStrategicNodes shares the caller's backing array")
	}
	got := strategicNodes(out)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("strategicNodes = %v", got)
	}
	over := Scenario{F: 2, Corruptions: base, Attack: adversary.AttackSpec{Name: adversary.AttackViewDesync, Nodes: 2}}
	if err := over.Validate(); err == nil || !strings.Contains(err.Error(), "3 faulty processors") {
		t.Fatalf("crash + 2 strategic > f = 2: Validate = %v, want a rejection", err)
	}
}

// TestSyncSpamLegality checks the spam builder per protocol: the
// message kind matches what the protocol's handlers consume, the view
// is one the handlers accept (epoch boundary / initial view / future
// view), and the signature verifies against the suite.
func TestSyncSpamLegality(t *testing.T) {
	t.Parallel()
	cfg := types.NewConfig(1, 100*time.Millisecond)
	suite := crypto.NewSimSuite(cfg.N, 1)
	for _, tc := range []struct {
		p        Protocol
		frontier types.View
		wantKind string
	}{
		{ProtoLumiere, 7, "EPOCHVIEW"},
		{ProtoBasic, 7, "EPOCHVIEW"},
		{ProtoLP22, 7, "EPOCHVIEW"},
		{ProtoRareSync, 7, "EPOCHVIEW"},
		{ProtoFever, 7, "VIEW"},
		{ProtoCogsworth, 7, "WISH"},
		{ProtoNK20, 7, "TIMEOUT"},
	} {
		build := syncSpamBuilder(Scenario{Protocol: tc.p}, cfg, suite)
		m := build(0, tc.frontier)
		if m == nil {
			t.Fatalf("%s: no spam message", tc.p)
		}
		if got := m.Kind().String(); got != tc.wantKind {
			t.Errorf("%s: spam kind %s, want %s", tc.p, got, tc.wantKind)
		}
		if m.View() < tc.frontier {
			t.Errorf("%s: spam view %v below the frontier %v", tc.p, m.View(), tc.frontier)
		}
		switch tc.p {
		case ProtoLumiere, ProtoBasic, ProtoLP22, ProtoRareSync:
			el := tc.p.EpochLen(cfg)
			if m.View()%el != 0 {
				t.Errorf("%s: spam view %v is not an epoch boundary (len %d)", tc.p, m.View(), el)
			}
		case ProtoFever:
			if !m.View().Initial() {
				t.Errorf("%s: spam view %v is not initial", tc.p, m.View())
			}
		}
	}
}
