package redteam

import (
	"math/rand"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
)

// Space is a finite search space: a choice list per candidate axis.
// Empty lists mean "axis pinned at zero". Enumeration and mutation are
// axis-aware — K only varies under leader-target, Period only under
// view-desync/complexity-saturate, the loss/partition/churn sub-axes
// only when their master axis is on — so the grid contains no
// redundant duplicates and mutations always land in the space.
type Space struct {
	// F is the fault tolerance every candidate runs at (n = 3f+1).
	F int
	// Strategies are the attack strategies to cross in (may include ""
	// for chaos-only candidates).
	Strategies []string
	// Nodes, Ks and Periods are the AttackSpec axes.
	Nodes   []int
	Ks      []int
	Periods []time.Duration
	// GSTs places the global stabilization time.
	GSTs []time.Duration
	// Losses, LossUntils, Duplications and ReorderJitters are the
	// message-chaos axes.
	Losses         []float64
	LossUntils     []time.Duration
	Duplications   []float64
	ReorderJitters []time.Duration
	// PartitionSizes and PartitionHeals are the partition axes.
	PartitionSizes []int
	PartitionHeals []time.Duration
	// ChurnNodes, ChurnDowns and ChurnPeriods are the crash-recovery
	// churn axes.
	ChurnNodes   []int
	ChurnDowns   []time.Duration
	ChurnPeriods []time.Duration
	// WANs is the deployment axis: topology preset, clock drift and
	// straggler are one joint choice list rather than three crossed axes,
	// keeping the grid growth linear in the number of deployments.
	WANs []WAN
}

// WAN is one deployment choice of the WANs axis: a topology preset
// (harness.WANPresets or empty), a ± clock-drift rate and a straggler
// processing delay. The zero WAN is the uniform fast network, so spaces
// listing it keep every topology-free candidate (ScriptedCandidates
// stay grid members).
type WAN struct {
	Topology  string
	DriftPPM  int64
	Straggler time.Duration
}

// orInts returns xs, or the pinned-zero singleton when empty.
func orInts(xs []int) []int {
	if len(xs) == 0 {
		return []int{0}
	}
	return xs
}

func orDurs(xs []time.Duration) []time.Duration {
	if len(xs) == 0 {
		return []time.Duration{0}
	}
	return xs
}

func orFloats(xs []float64) []float64 {
	if len(xs) == 0 {
		return []float64{0}
	}
	return xs
}

func orWANs(xs []WAN) []WAN {
	if len(xs) == 0 {
		return []WAN{{}}
	}
	return xs
}

// usesK reports whether the strategy consumes the K axis; usesPeriod
// likewise for Period.
func usesK(strategy string) bool { return strategy == adversary.AttackLeaderTarget }

func usesPeriod(strategy string) bool {
	return strategy == adversary.AttackViewDesync || strategy == adversary.AttackSaturate
}

// Candidates enumerates the space's grid in deterministic order. Axes a
// combination does not consume collapse to zero (no duplicates), and
// combinations whose strategic plus churned processors would exceed F
// are skipped.
func (sp Space) Candidates() []Candidate {
	var out []Candidate
	strategies := sp.Strategies
	if len(strategies) == 0 {
		strategies = []string{""}
	}
	for _, strat := range strategies {
		nodes, ks, periods := orInts(sp.Nodes), []int{0}, []time.Duration{0}
		if strat == "" {
			nodes = []int{0}
		}
		if usesK(strat) {
			ks = orInts(sp.Ks)
		}
		if usesPeriod(strat) {
			periods = orDurs(sp.Periods)
		}
		for _, n := range nodes {
			for _, k := range ks {
				for _, per := range periods {
					for _, gst := range orDurs(sp.GSTs) {
						out = sp.chaosCross(out, Candidate{
							Strategy: strat, Nodes: n, K: k, Period: per, GST: gst,
						})
					}
				}
			}
		}
	}
	return out
}

// chaosCross appends base crossed with every legal chaos combination.
func (sp Space) chaosCross(out []Candidate, base Candidate) []Candidate {
	for _, loss := range orFloats(sp.Losses) {
		lus := []time.Duration{0}
		if loss > 0 {
			lus = orDurs(sp.LossUntils)
		}
		for _, lu := range lus {
			for _, dup := range orFloats(sp.Duplications) {
				for _, rj := range orDurs(sp.ReorderJitters) {
					for _, ps := range orInts(sp.PartitionSizes) {
						phs := []time.Duration{0}
						if ps > 0 {
							phs = orDurs(sp.PartitionHeals)
						}
						for _, ph := range phs {
							for _, cn := range orInts(sp.ChurnNodes) {
								if base.Nodes+cn > sp.F {
									continue
								}
								cds, cps := []time.Duration{0}, []time.Duration{0}
								if cn > 0 {
									cds, cps = orDurs(sp.ChurnDowns), orDurs(sp.ChurnPeriods)
								}
								for _, cd := range cds {
									for _, cp := range cps {
										for _, w := range orWANs(sp.WANs) {
											c := base
											c.Loss, c.LossUntil = loss, lu
											c.Duplication, c.ReorderJitter = dup, rj
											c.PartitionSize, c.PartitionHeal = ps, ph
											c.ChurnNodes, c.ChurnDown, c.ChurnPeriod = cn, cd, cp
											c.Topology, c.DriftPPM, c.Straggler = w.Topology, w.DriftPPM, w.Straggler
											out = append(out, c.Legalize(sp.F))
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Mutate moves the candidate one step along a random axis of the space
// (all randomness from rng) and returns the legalized result. Mutations
// stay in-space: the new axis value is drawn from the axis's choice
// list.
func (sp Space) Mutate(c Candidate, rng *rand.Rand) Candidate {
	type op func(*Candidate)
	var ops []op
	if len(sp.Strategies) > 1 {
		ops = append(ops, func(d *Candidate) {
			d.Strategy = sp.Strategies[rng.Intn(len(sp.Strategies))]
			if d.Strategy != "" && d.Nodes == 0 {
				d.Nodes = orInts(sp.Nodes)[rng.Intn(len(orInts(sp.Nodes)))]
			}
			if usesK(d.Strategy) && d.K == 0 {
				d.K = orInts(sp.Ks)[rng.Intn(len(orInts(sp.Ks)))]
			}
			if usesPeriod(d.Strategy) && d.Period == 0 {
				d.Period = orDurs(sp.Periods)[rng.Intn(len(orDurs(sp.Periods)))]
			}
		})
	}
	if len(sp.Nodes) > 1 {
		ops = append(ops, func(d *Candidate) { d.Nodes = sp.Nodes[rng.Intn(len(sp.Nodes))] })
	}
	if len(sp.Ks) > 1 {
		ops = append(ops, func(d *Candidate) { d.K = sp.Ks[rng.Intn(len(sp.Ks))] })
	}
	if len(sp.Periods) > 1 {
		ops = append(ops, func(d *Candidate) { d.Period = sp.Periods[rng.Intn(len(sp.Periods))] })
	}
	if len(sp.GSTs) > 1 {
		ops = append(ops, func(d *Candidate) { d.GST = sp.GSTs[rng.Intn(len(sp.GSTs))] })
	}
	if len(sp.Losses) > 1 {
		ops = append(ops, func(d *Candidate) { d.Loss = sp.Losses[rng.Intn(len(sp.Losses))] })
	}
	if len(sp.LossUntils) > 1 {
		ops = append(ops, func(d *Candidate) { d.LossUntil = sp.LossUntils[rng.Intn(len(sp.LossUntils))] })
	}
	if len(sp.Duplications) > 1 {
		ops = append(ops, func(d *Candidate) { d.Duplication = sp.Duplications[rng.Intn(len(sp.Duplications))] })
	}
	if len(sp.ReorderJitters) > 1 {
		ops = append(ops, func(d *Candidate) { d.ReorderJitter = sp.ReorderJitters[rng.Intn(len(sp.ReorderJitters))] })
	}
	if len(sp.PartitionSizes) > 1 {
		ops = append(ops, func(d *Candidate) {
			d.PartitionSize = sp.PartitionSizes[rng.Intn(len(sp.PartitionSizes))]
			if d.PartitionSize > 0 && d.PartitionHeal == 0 && len(sp.PartitionHeals) > 0 {
				d.PartitionHeal = sp.PartitionHeals[rng.Intn(len(sp.PartitionHeals))]
			}
		})
	}
	if len(sp.PartitionHeals) > 1 {
		ops = append(ops, func(d *Candidate) { d.PartitionHeal = sp.PartitionHeals[rng.Intn(len(sp.PartitionHeals))] })
	}
	if len(sp.ChurnNodes) > 1 {
		ops = append(ops, func(d *Candidate) { d.ChurnNodes = sp.ChurnNodes[rng.Intn(len(sp.ChurnNodes))] })
	}
	if len(sp.ChurnDowns) > 1 {
		ops = append(ops, func(d *Candidate) { d.ChurnDown = sp.ChurnDowns[rng.Intn(len(sp.ChurnDowns))] })
	}
	if len(sp.ChurnPeriods) > 1 {
		ops = append(ops, func(d *Candidate) { d.ChurnPeriod = sp.ChurnPeriods[rng.Intn(len(sp.ChurnPeriods))] })
	}
	if len(sp.WANs) > 1 {
		ops = append(ops, func(d *Candidate) {
			w := sp.WANs[rng.Intn(len(sp.WANs))]
			d.Topology, d.DriftPPM, d.Straggler = w.Topology, w.DriftPPM, w.Straggler
		})
	}
	if len(ops) == 0 {
		return c.Legalize(sp.F)
	}
	ops[rng.Intn(len(ops))](&c)
	return c.Legalize(sp.F)
}

// DefaultSpace is the reference search space at fault tolerance f: every
// strategy (plus chaos-only), small and maximal strategy-node counts,
// three silence/spam periods, two GST placements, loss, partition and
// churn compositions, and four WAN deployments (uniform, wan3, a
// drifting hub, and a drifting straggler on the fast network). It
// contains every ScriptedCandidates point (the zero WAN choice). Its
// grid stays in the low thousands of cells per protocol — small enough
// that a full-objective search runs in minutes on the sweep engine.
func DefaultSpace(f int) Space {
	d := harness.AttackDelta
	return Space{
		F:              f,
		Strategies:     append([]string{""}, adversary.AttackNames()...),
		Nodes:          dedupInts(1, f),
		Ks:             dedupInts(1, f),
		Periods:        []time.Duration{d, 5 * d, 20 * d},
		GSTs:           []time.Duration{500 * time.Millisecond, 2 * time.Second},
		Losses:         []float64{0, 0.3},
		PartitionSizes: []int{0, f + 1},
		PartitionHeals: []time.Duration{0, 3 * time.Second},
		ChurnNodes:     []int{0, 1},
		ChurnDowns:     []time.Duration{10 * d},
		ChurnPeriods:   []time.Duration{2 * time.Second},
		WANs: []WAN{
			{},
			{Topology: "wan3"},
			{Topology: "hub", DriftPPM: 10_000},
			{DriftPPM: maxDriftPPM, Straggler: d},
		},
	}
}

// SlimSpace is the reduced space the p99-commit objective searches: SMR
// cells cost an order of magnitude more wall-clock than plain sync
// cells, so the workload objective crosses strategies with loss and a
// single WAN coin (the degraded preset — slow inter-region links plus a
// slow region). It still contains every ScriptedCandidates point.
func SlimSpace(f int) Space {
	d := harness.AttackDelta
	return Space{
		F:          f,
		Strategies: append([]string{""}, adversary.AttackNames()...),
		Nodes:      dedupInts(1, f),
		Ks:         []int{f},
		Periods:    []time.Duration{d, 20 * d},
		GSTs:       []time.Duration{2 * time.Second},
		Losses:     []float64{0, 0.3},
		WANs:       []WAN{{}, {Topology: "degraded"}},
	}
}

// smokeSpace is the tiny space the grid smoke test and the worker-count
// determinism tests search: every strategy at one node with one
// parameter choice, crossed with a loss coin and a WAN coin.
func smokeSpace(f int) Space {
	d := harness.AttackDelta
	return Space{
		F:          f,
		Strategies: append([]string{""}, adversary.AttackNames()...),
		Nodes:      []int{1},
		Ks:         []int{1},
		Periods:    []time.Duration{20 * d},
		GSTs:       []time.Duration{time.Second},
		Losses:     []float64{0, 0.25},
		WANs:       []WAN{{}, {Topology: "wan3", DriftPPM: 10_000}},
	}
}

// dedupInts returns {a, b}, collapsed when equal.
func dedupInts(a, b int) []int {
	if a == b {
		return []int{a}
	}
	return []int{a, b}
}
