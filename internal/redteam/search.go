package redteam

import "lumiere/internal/harness"

// Evaluated is one candidate's evaluation under an objective.
type Evaluated struct {
	// Candidate is the evaluated point (legalized).
	Candidate Candidate `json:"candidate"`
	// Seed is the evaluation seed (CandidateSeed of the search seed and
	// the candidate).
	Seed int64 `json:"seed"`
	// Value is the objective value; Decided reports whether the run
	// produced the objective's event (see Measure).
	Value   float64 `json:"value"`
	Decided bool    `json:"decided"`
}

// Evaluator evaluates candidates for one (protocol, f, objective,
// search seed) context. Evaluation is a pure function of the candidate:
// the scenario seed derives from (SearchSeed, candidate key), so values
// are independent of evaluation order, caching and worker count. The
// evaluator memoizes by candidate key, so the grid and the minimizer's
// probes share evaluations for free, and Best ranks all of them.
type Evaluator struct {
	Protocol   harness.Protocol
	F          int
	Obj        Objective
	SearchSeed int64

	cache map[string]Evaluated
}

// NewEvaluator builds an evaluator for one search context.
func NewEvaluator(p harness.Protocol, f int, obj Objective, searchSeed int64) *Evaluator {
	return &Evaluator{Protocol: p, F: f, Obj: obj, SearchSeed: searchSeed, cache: map[string]Evaluated{}}
}

// Eval evaluates one candidate serially (the minimizer's probe path).
func (e *Evaluator) Eval(c Candidate) Evaluated {
	c = c.Legalize(e.F)
	k := c.Key()
	if ev, ok := e.cache[k]; ok {
		return ev
	}
	seed := CandidateSeed(e.SearchSeed, c)
	res := harness.Run(c.Scenario(e.Protocol, e.F, e.Obj, seed))
	val, dec := Measure(res, e.Obj)
	ev := Evaluated{Candidate: c, Seed: seed, Value: val, Decided: dec}
	e.cache[k] = ev
	return ev
}

// EvalAll evaluates a candidate batch on the sweep engine (results in
// input order), sized by opts. Candidates already in the cache
// cost nothing; the rest run in parallel with their candidate-derived
// seeds, so the returned values are byte-identical at any worker count.
func (e *Evaluator) EvalAll(cands []Candidate, opts harness.SweepOptions) []Evaluated {
	legal := make([]Candidate, len(cands))
	var todo []Candidate
	pending := map[string]bool{}
	for i, c := range cands {
		lc := c.Legalize(e.F)
		legal[i] = lc
		k := lc.Key()
		if _, ok := e.cache[k]; !ok && !pending[k] {
			pending[k] = true
			todo = append(todo, lc)
		}
	}
	if len(todo) > 0 {
		scenarios := make([]harness.Scenario, len(todo))
		for i, c := range todo {
			scenarios[i] = c.Scenario(e.Protocol, e.F, e.Obj, CandidateSeed(e.SearchSeed, c))
		}
		sr := harness.Sweep(scenarios, opts)
		for i := range sr.Cells {
			val, dec := Measure(sr.Cells[i].Result, e.Obj)
			e.cache[todo[i].Key()] = Evaluated{
				Candidate: todo[i], Seed: sr.Cells[i].Scenario.Seed, Value: val, Decided: dec,
			}
		}
	}
	out := make([]Evaluated, len(legal))
	for i := range legal {
		out[i] = e.cache[legal[i].Key()]
	}
	return out
}

// Evaluations returns the number of distinct candidates evaluated.
func (e *Evaluator) Evaluations() int { return len(e.cache) }

// Best returns the best candidate the evaluator has scored — grid cell
// or minimizer probe — under the search's total order: value
// descending, candidate key ascending as the deterministic tie-break.
// The order is total over distinct keys, so the result does not depend
// on the cache's iteration order. An evaluator that has scored nothing
// returns the zero Evaluated.
func (e *Evaluator) Best() Evaluated {
	var best Evaluated
	first := true
	for _, ev := range e.cache {
		if first || better(ev, best) {
			best, first = ev, false
		}
	}
	return best
}

// better reports whether a precedes b in the search order.
func better(a, b Evaluated) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Candidate.Key() < b.Candidate.Key()
}
