package redteam

import (
	"testing"

	"lumiere/internal/harness"
)

// smokeProtocols are the two protocols the CI smoke job greps for: the
// paper's protagonist and its closest O(n²) baseline.
var smokeProtocols = []harness.Protocol{harness.ProtoLP22, harness.ProtoLumiere}

// TestSpaceContainsScripted pins the dominance-by-construction
// property: every scripted PR 4 attack point is a member of both
// reference spaces, so any searched frontier value is ≥ the scripted
// corpus for free.
func TestSpaceContainsScripted(t *testing.T) {
	for _, f := range []int{1, 2, 3} {
		for _, sp := range []Space{DefaultSpace(f), SlimSpace(f)} {
			keys := map[string]bool{}
			for _, c := range sp.Candidates() {
				keys[c.Key()] = true
			}
			for _, c := range ScriptedCandidates(f) {
				lc := c.Legalize(f)
				if lc.Key() != c.Key() {
					t.Errorf("f=%d: scripted candidate %s not in legalized form", f, c)
				}
				if !keys[lc.Key()] {
					t.Errorf("f=%d: scripted candidate %s missing from space grid", f, c)
				}
			}
		}
	}
}

// TestCandidateSeedStable pins the seed derivation: equal candidates
// get equal seeds, different candidates (or search seeds) different
// ones — the property that makes every evaluation reproducible
// anywhere.
func TestCandidateSeedStable(t *testing.T) {
	a := ScriptedCandidates(2)[0]
	b := ScriptedCandidates(2)[1]
	if CandidateSeed(1, a) != CandidateSeed(1, a) {
		t.Fatal("seed not stable")
	}
	if CandidateSeed(1, a) == CandidateSeed(1, b) {
		t.Fatal("distinct candidates share a seed")
	}
	if CandidateSeed(1, a) == CandidateSeed(2, a) {
		t.Fatal("distinct search seeds share a candidate seed")
	}
}

// TestLegalizeIdempotent pins Legalize as a normal form: legalizing a
// legalized candidate is the identity, and the strategic + churned
// processor budget never exceeds f.
func TestLegalizeIdempotent(t *testing.T) {
	wild := Candidate{
		Strategy: "view-desync", Nodes: 99, K: 99, Period: 400 * 1e9,
		GST: 99 * 1e9, Loss: 7, LossUntil: 99 * 1e9, Duplication: -3,
		PartitionSize: 99, ChurnNodes: 99,
	}
	for _, f := range []int{1, 2, 3} {
		c := wild.Legalize(f)
		if again := c.Legalize(f); again.Key() != c.Key() {
			t.Errorf("f=%d: Legalize not idempotent: %s vs %s", f, c.Key(), again.Key())
		}
		if c.Nodes+c.ChurnNodes > f {
			t.Errorf("f=%d: corrupted budget exceeded: nodes=%d churn=%d", f, c.Nodes, c.ChurnNodes)
		}
	}
}

// TestRedTeamGridSmoke is the CI smoke search: the two smoke protocols
// over the tiny space, under every objective's evaluator — every cell
// must produce its objective event (the candidates are all model-legal)
// and the grid must be byte-identical at workers 1 vs 4.
func TestRedTeamGridSmoke(t *testing.T) {
	sp := SmokeSpace(1)
	cands := sp.Candidates()
	objectives := []Objective{ObjSyncLatency, ObjWGSTWords}
	if !testing.Short() {
		objectives = Objectives()
	}
	for _, p := range smokeProtocols {
		for _, obj := range objectives {
			e := NewEvaluator(p, sp.F, obj, 9)
			serial := e.EvalAll(cands, harness.SweepOptions{Workers: 1})
			pool := NewEvaluator(p, sp.F, obj, 9).EvalAll(cands, harness.SweepOptions{Workers: 4})
			for i := range serial {
				if serial[i] != pool[i] {
					t.Fatalf("%s/%s: cell %d differs across worker counts: %+v vs %+v",
						p, obj, i, serial[i], pool[i])
				}
				if !serial[i].Decided {
					t.Errorf("%s/%s: candidate %s stalled (value %.2f)",
						p, obj, serial[i].Candidate, serial[i].Value)
				}
			}
			best := e.Best()
			if best.Value <= 0 {
				t.Errorf("%s/%s: degenerate frontier value %.3f", p, obj, best.Value)
			}
		}
	}
}
