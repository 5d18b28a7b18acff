package redteam

import (
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
)

// loadedCandidate is a fully-populated worst case for the synthetic
// minimizer tests: every axis on.
func loadedCandidate() Candidate {
	return Candidate{
		Strategy: adversary.AttackViewDesync, Nodes: 2, Period: time.Second,
		GST: 2 * time.Second, Loss: 0.4, LossUntil: 4 * time.Second,
		Duplication: 0.3, ReorderJitter: 40 * time.Millisecond,
		PartitionSize: 3, PartitionHeal: 3 * time.Second,
	}
}

// TestMinimizeIdempotent pins the fixpoint property: minimizing a
// minimized candidate changes nothing, for a spread of pure predicates.
func TestMinimizeIdempotent(t *testing.T) {
	preds := map[string]func(Candidate) bool{
		"always":     func(Candidate) bool { return true },
		"keep-loss":  func(c Candidate) bool { return c.Loss >= 0.1 },
		"keep-pair":  func(c Candidate) bool { return c.Strategy != "" && c.PartitionSize > 0 },
		"keep-heavy": func(c Candidate) bool { return axisSum(c) >= 0.5*axisSum(loadedCandidate()) },
	}
	for name, keep := range preds {
		m1 := Minimize(loadedCandidate(), 2, keep)
		m2 := Minimize(m1, 2, keep)
		if m1.Key() != m2.Key() {
			t.Errorf("%s: not a fixpoint: %s -> %s", name, m1, m2)
		}
		if !keep(m1) && name != "always" {
			// "always" accepts everything including the empty candidate;
			// the others must end on an accepted point.
			t.Errorf("%s: minimized candidate rejected by its own predicate: %s", name, m1)
		}
	}
}

// TestMinimizeMonotone pins monotone shrinkage: the minimized candidate
// never exceeds the input on any axis.
func TestMinimizeMonotone(t *testing.T) {
	start := loadedCandidate()
	for name, keep := range map[string]func(Candidate) bool{
		"always":    func(Candidate) bool { return true },
		"keep-some": func(c Candidate) bool { return c.Loss > 0 || c.Duplication > 0 },
	} {
		m := Minimize(start, 2, keep)
		sv, mv := axisVector(start.Legalize(2)), axisVector(m)
		for i := range sv {
			if mv[i] > sv[i] {
				t.Errorf("%s: axis %d grew: %.3g -> %.3g (candidate %s)", name, i, sv[i], mv[i], m)
			}
		}
	}
}

// TestMinimizeDeterministicAcrossWorkers pins the acceptance property
// end to end on a real objective: the same frontier candidate minimized
// against evaluators fed by 1-worker and 4-worker searches yields
// byte-identical candidates — the evaluator's values are pure functions
// of the candidate, so worker count cannot leak into the shrink path.
func TestMinimizeDeterministicAcrossWorkers(t *testing.T) {
	sp := SmokeSpace(1)
	minimize := func(workers int) (Candidate, float64) {
		e := NewEvaluator(harness.ProtoLumiere, sp.F, ObjSyncLatency, 5)
		e.EvalAll(sp.Candidates(), harness.SweepOptions{Workers: workers})
		best := e.Best()
		floor := 0.95 * best.Value
		m := Minimize(best.Candidate, sp.F, func(d Candidate) bool {
			return e.Eval(d).Value >= floor
		})
		return m, e.Eval(m).Value
	}
	m1, v1 := minimize(1)
	m4, v4 := minimize(4)
	if m1.Key() != m4.Key() || v1 != v4 {
		t.Fatalf("minimized scenario differs across worker counts: %s (%.3f) vs %s (%.3f)", m1, v1, m4, v4)
	}
}

// TestShrinksStrictlySmaller pins termination's well-foundedness: every
// immediate shrink of a legalized candidate strictly decreases the axis
// sum and never grows any single axis.
func TestShrinksStrictlySmaller(t *testing.T) {
	c := loadedCandidate().Legalize(2)
	for _, d := range shrinks(c) {
		d = d.Legalize(2)
		if d.Key() == c.Key() {
			continue
		}
		cv, dv := axisVector(c), axisVector(d)
		smaller := false
		for i := range cv {
			if dv[i] > cv[i] {
				t.Fatalf("shrink grew axis %d: %s -> %s", i, c, d)
			}
			if dv[i] < cv[i] {
				smaller = true
			}
		}
		if !smaller {
			t.Fatalf("shrink did not shrink: %s -> %s", c, d)
		}
	}
}

// axisSum is a crude size measure over the normalized axis vector.
func axisSum(c Candidate) float64 {
	total := 0.0
	for _, v := range axisVector(c) {
		total += v
	}
	return total
}
