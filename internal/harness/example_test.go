package harness_test

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// ExampleRun shows the minimal simulated execution: four replicas running
// Lumiere over the partial synchrony model. Seeded runs are
// deterministic, so the output is exact.
func ExampleRun() {
	res := harness.Run(harness.Scenario{
		Protocol: harness.ProtoLumiere,
		F:        1, // n = 3f+1 = 4
		Delta:    100 * time.Millisecond,
		Duration: 10 * time.Second,
		Seed:     1,
	})
	fmt.Println("replicas:", res.Cfg.N)
	fmt.Println("decided:", res.DecisionCount() > 100)
	// Output:
	// replicas: 4
	// decided: true
}

// ExampleRun_faults shows a run with the maximum number of crashed
// replicas: the protocol stays live with f faults.
func ExampleRun_faults() {
	res := harness.Run(harness.Scenario{
		Protocol:    harness.ProtoLumiere,
		F:           1,
		Delta:       100 * time.Millisecond,
		Corruptions: adversary.CrashFirst(1),
		Duration:    20 * time.Second,
		Seed:        1,
	})
	fmt.Println("live with f crashes:", res.DecisionCount() > 0)
	// Output:
	// live with f crashes: true
}

// ExampleRun_chaos runs Lumiere through a split-brain that heals at
// GST: an island of f+1 processors is cut off, the §2 clamp floods the
// withheld traffic back at GST+Δ, and the protocol must resynchronize.
func ExampleRun_chaos() {
	res := harness.Run(harness.Scenario{
		Protocol:   harness.ProtoLumiere,
		F:          1,
		Delta:      100 * time.Millisecond,
		GST:        2 * time.Second,
		Partitions: [][]types.NodeID{{0, 1}}, // island until GST
		Duration:   20 * time.Second,
		Seed:       1,
	})
	_, ok := res.Collector.FirstDecisionAfter(res.GST)
	fmt.Println("synced after heal:", ok)
	// Output:
	// synced after heal: true
}

// ExampleChaosSweep runs the chaos conformance sweep: generated
// scenarios with guaranteed link conditions (partitions, loss,
// duplication, reorder jitter, crash-recovery churn, omission budgets),
// cycled across every protocol and checked against the §2 obligations.
// The report depends only on (count, seed), so the output is exact at
// any worker count.
func ExampleChaosSweep() {
	rep := harness.ChaosSweep(6, 7, harness.SweepOptions{})
	fmt.Println("cells:", len(rep.Cells))
	fmt.Println("conformant:", rep.Conformant())
	// Output:
	// cells: 6
	// conformant: true
}

// ExampleAttackSweep runs every protocol under every adaptive attack
// strategy — vote-then-silence desync, next-leader omission, GST
// straddling, protocol-legal sync spam — and checks that all of them
// stay live: the strategies are model-legal, so a stalled cell would be
// a protocol failure. The report depends only on (f, seed), so the
// output is exact at any worker count.
func ExampleAttackSweep() {
	rep := harness.AttackSweep(1, 42, harness.SweepOptions{})
	fmt.Println("cells:", len(rep.Cells))
	fmt.Println("all decided after GST:", rep.AllDecided())
	// Output:
	// cells: 24
	// all decided after GST: true
}

// Example_wordComplexity shows the per-word communication accounting:
// every honest send is charged its size in words (one word per κ-bit
// signature, certificate, hash or bounded integer), queryable as run
// totals and post-GST windows (the paper's W_T).
func Example_wordComplexity() {
	res := harness.Run(harness.Scenario{
		Protocol: harness.ProtoLumiere,
		F:        1,
		Delta:    100 * time.Millisecond,
		Duration: 10 * time.Second,
		Seed:     1,
	})
	words, _, _ := res.Collector.WordsWindowAfter(res.GST)
	n := res.Cfg.N
	fmt.Println("accounted words:", res.Collector.WordsTotal() > 0)
	fmt.Println("W_GST within 8n^2 words:", words <= int64(8*n*n))
	// Output:
	// accounted words: true
	// W_GST within 8n^2 words: true
}

// ExampleRun_attack arms the complexity-saturation attack: the
// corrupted processor goes dark during its leadership slots (its views
// fail, forcing the view-change machinery to fire continuously) and
// spams protocol-legal sync traffic the rest of the time. Progress
// slows — but the per-decision word cost stays within the O(n²)
// ceiling the protocol guarantees. The baseline corrupts the same
// processor without a strategy, so both runs charge the same honest
// set.
func ExampleRun_attack() {
	base := harness.Scenario{
		Protocol:    harness.ProtoLumiere,
		F:           1,
		Delta:       50 * time.Millisecond,
		DeltaActual: 5 * time.Millisecond,
		Duration:    20 * time.Second,
		Seed:        1,
	}
	quiet := base
	quiet.Corruptions = []adversary.Corruption{{Node: 3, Behavior: adversary.BehaviorStrategic}}
	attacked := base
	attacked.Attack = adversary.AttackSpec{Name: adversary.AttackSaturate}
	q, a := harness.Run(quiet), harness.Run(attacked)
	perDec := a.Collector.Stats(a.GST, 2).MeanWords
	n := a.Cfg.N
	fmt.Println("still live:", a.DecisionCount() > 0)
	fmt.Println("attack slowed decisions:", a.DecisionCount() < q.DecisionCount()/2)
	fmt.Println("words per decision within 4n^2:", perDec <= float64(4*n*n))
	// Output:
	// still live: true
	// attack slowed decisions: true
	// words per decision within 4n^2: true
}

// ExampleRun_smr runs full chained-HotStuff state machine replication
// under the Lumiere pacemaker.
func ExampleRun_smr() {
	res := harness.Run(harness.Scenario{
		Protocol:    harness.ProtoLumiere,
		F:           1,
		Delta:       100 * time.Millisecond,
		DeltaActual: 5 * time.Millisecond,
		Duration:    10 * time.Second,
		Seed:        1,
		SMR:         true,
		Workload:    &workload.Config{Rate: 100},
	})
	fmt.Println("commands injected:", res.Injected > 0)
	fmt.Println("state machines:", res.SMs[0] != nil)
	// Output:
	// commands injected: true
	// state machines: true
}
