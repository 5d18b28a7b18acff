package harness

import (
	"fmt"
	"time"

	"lumiere/internal/viz"
)

// This file implements the chaos conformance sweep: the scenario-
// diversity counterpart of the generated conformance suite (gen.go).
// Where the plain suite draws mostly-delay adversaries, the chaos sweep
// guarantees every cell carries link conditions — partitions, loss,
// duplication, reorder jitter, crash-recovery churn, omission budgets —
// and checks every protocol against the same §2 obligations on them.

// ChaosCell is one checked cell of a chaos conformance sweep.
type ChaosCell struct {
	// Name identifies the cell ("chaos-07-fever").
	Name string
	// Protocol is the protocol the cell ran.
	Protocol Protocol
	// Seed is the cell's generator seed.
	Seed int64
	// Decided reports whether an honest-leader decision landed after
	// GST; SyncLatency is its distance from GST.
	Decided     bool
	SyncLatency time.Duration
	// Decisions counts honest-leader decisions over the whole run.
	Decisions int
	// Omitted is the number of true post-GST omissions granted against
	// the cell's omission budget.
	Omitted int64
	// Problems holds the cell's conformance violations (empty = pass).
	Problems []string
}

// ChaosReport aggregates a chaos conformance sweep.
type ChaosReport struct {
	// Cells holds one entry per scenario, in matrix order.
	Cells []ChaosCell
	// Workers is the worker-pool size the sweep used.
	Workers int
	// Problems is the total conformance violation count across cells.
	Problems int
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// Conformant reports whether every cell passed.
func (r *ChaosReport) Conformant() bool { return r.Problems == 0 }

// Table renders the report as one row per cell. The rendering is a
// pure function of the simulated executions, so it is byte-identical
// at every worker count.
func (r *ChaosReport) Table() *viz.Table {
	t := &viz.Table{Title: fmt.Sprintf("Chaos conformance sweep: %d generated scenarios", len(r.Cells))}
	t.Header = []string{"scenario", "protocol", "sync-latency", "decisions", "omitted", "problems"}
	for i := range r.Cells {
		c := &r.Cells[i]
		lat := "stalled"
		if c.Decided {
			lat = c.SyncLatency.Round(time.Millisecond).String()
		}
		t.AddRow(c.Name, string(c.Protocol), lat,
			fmt.Sprintf("%d", c.Decisions), fmt.Sprintf("%d", c.Omitted),
			fmt.Sprintf("%d", len(c.Problems)))
	}
	return t
}

// ChaosSweep generates count chaos scenarios (GenChaosScenario, seeds
// derived from baseSeed), cycles them across every protocol in
// AllProtocols, runs them on the sweep engine with invariant checking
// on, and conformance-checks every cell. Cell contents depend only on
// (count, baseSeed), never on the worker count.
func ChaosSweep(count int, baseSeed int64, opts SweepOptions) *ChaosReport {
	scenarios := make([]Scenario, count)
	for i := range scenarios {
		s := GenChaosScenario(DeriveSeed(baseSeed, i))
		s.Protocol = AllProtocols[i%len(AllProtocols)]
		s.Name = fmt.Sprintf("chaos-%02d-%s", i, s.Protocol)
		scenarios[i] = s
	}
	sr := Sweep(scenarios, opts)

	rep := &ChaosReport{Workers: sr.Workers, Elapsed: sr.Elapsed}
	for i := range sr.Cells {
		cell := &sr.Cells[i]
		res := cell.Result
		cc := ChaosCell{
			Name:      cell.Scenario.Name,
			Protocol:  cell.Scenario.Protocol,
			Seed:      cell.Scenario.Seed,
			Decisions: res.DecisionCount(),
			Omitted:   res.Omitted,
			Problems:  ConformanceReport(res),
		}
		if d, ok := res.Collector.FirstDecisionAfter(res.GST); ok {
			cc.Decided = true
			cc.SyncLatency = d.At.Sub(res.GST)
		}
		rep.Problems += len(cc.Problems)
		rep.Cells = append(rep.Cells, cc)
	}
	return rep
}
