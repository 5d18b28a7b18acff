package harness_test

import (
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/network"
	"lumiere/internal/types"
)

// TestAPIQuickstart exercises the harness exactly as the README's
// quickstart does.
func TestAPIQuickstart(t *testing.T) {
	res := harness.Run(harness.Scenario{
		Protocol: harness.ProtoLumiere,
		F:        1,
		Delta:    100 * time.Millisecond,
		Duration: 10 * time.Second,
		Seed:     1,
	})
	if res.DecisionCount() == 0 {
		t.Fatal("no decisions")
	}
	if res.Cfg.N != 4 {
		t.Fatalf("n = %d", res.Cfg.N)
	}
}

// TestAPIAllProtocolsListed keeps the exported protocol list in sync.
func TestAPIAllProtocolsListed(t *testing.T) {
	want := map[harness.Protocol]bool{
		harness.ProtoLumiere: true, harness.ProtoBasic: true, harness.ProtoLP22: true,
		harness.ProtoFever: true, harness.ProtoCogsworth: true, harness.ProtoNK20: true,
	}
	if len(harness.AllProtocols) != len(want) {
		t.Fatalf("AllProtocols = %v", harness.AllProtocols)
	}
	for _, p := range harness.AllProtocols {
		if !want[p] {
			t.Fatalf("unexpected protocol %q", p)
		}
	}
}

// TestAPICorruptionHelpers checks the corruption constructors.
func TestAPICorruptionHelpers(t *testing.T) {
	res := harness.Run(harness.Scenario{
		Protocol:    harness.ProtoLumiere,
		F:           1,
		Delta:       100 * time.Millisecond,
		Duration:    15 * time.Second,
		Corruptions: adversary.CrashFirst(1),
		Seed:        2,
	})
	if res.DecisionCount() == 0 {
		t.Fatal("no decisions with one crash")
	}
	if res.Collector.ByzantineSends() != 0 {
		t.Fatal("crashed node sent messages")
	}
}

// TestAPIRunSweep exercises the parallel sweep.
func TestAPIRunSweep(t *testing.T) {
	scenarios := []harness.Scenario{
		{Protocol: harness.ProtoLumiere, F: 1, Duration: 10 * time.Second},
		{Protocol: harness.ProtoFever, F: 1, Duration: 10 * time.Second},
	}
	sr := harness.Sweep(scenarios, harness.SweepOptions{Workers: 2, BaseSeed: 9})
	if len(sr.Cells) != 2 {
		t.Fatalf("cells = %d", len(sr.Cells))
	}
	for i, cell := range sr.Cells {
		if cell.Result.DecisionCount() == 0 {
			t.Fatalf("cell %d: no decisions", i)
		}
		if cell.Scenario.Seed != harness.DeriveSeed(9, i) {
			t.Fatalf("cell %d: seed %d not derived", i, cell.Scenario.Seed)
		}
	}
}

// TestAPIChaos runs a partitioned, lossy, duplicating, churning
// scenario: the partition heals at GST, the budget grants bounded
// post-GST omission, and the run must still conform.
func TestAPIChaos(t *testing.T) {
	res := harness.Run(harness.Scenario{
		Protocol:       harness.ProtoLumiere,
		F:              1,
		Delta:          100 * time.Millisecond,
		GST:            2 * time.Second,
		Partitions:     [][]types.NodeID{{0, 1}},
		Loss:           0.2,
		Duplication:    0.2,
		OmissionBudget: network.OmissionBudget{MaxMessages: 50, MaxSenders: 1},
		Corruptions: []adversary.Corruption{
			adversary.PeriodicChurn(3, time.Second, 500*time.Millisecond, 2*time.Second, 2),
		},
		Duration:        30 * time.Second,
		Seed:            5,
		CheckInvariants: true,
	})
	if _, ok := res.Collector.FirstDecisionAfter(res.GST); !ok {
		t.Fatal("no decision after GST under chaos")
	}
	if problems := harness.ConformanceReport(res); len(problems) != 0 {
		t.Fatalf("conformance: %v", problems)
	}
	if res.Omitted == 0 {
		t.Fatal("omission budget never exercised")
	}
}

// TestAPIAttack runs an adaptive attack: the scenario stays conformant
// (the strategy is model-legal), the strategic corruption is recorded,
// and the word accounting is live.
func TestAPIAttack(t *testing.T) {
	res := harness.Run(harness.Scenario{
		Protocol: harness.ProtoLumiere,
		F:        1,
		Delta:    100 * time.Millisecond,
		GST:      2 * time.Second,
		Attack:   adversary.AttackSpec{Name: adversary.AttackViewDesync},
		Duration: 30 * time.Second,
		Seed:     5,
	})
	if _, ok := res.Collector.FirstDecisionAfter(res.GST); !ok {
		t.Fatal("no decision after GST under attack")
	}
	if problems := harness.ConformanceReport(res); len(problems) != 0 {
		t.Fatalf("conformance: %v", problems)
	}
	found := false
	for _, c := range res.Scenario.Corruptions {
		if c.Behavior == adversary.BehaviorStrategic {
			found = true
		}
	}
	if !found {
		t.Fatal("strategic corruption not recorded in the scenario")
	}
	if res.Collector.WordsTotal() <= 0 {
		t.Fatal("no words accounted")
	}
	if len(adversary.AttackNames()) != len(harness.AttackSpecs()) {
		t.Fatal("attack registry mismatch")
	}
}

// TestAPISMR runs the SMR path.
func TestAPISMR(t *testing.T) {
	res := harness.Run(harness.Scenario{
		Protocol:     harness.ProtoLumiere,
		F:            1,
		Delta:        100 * time.Millisecond,
		Duration:     15 * time.Second,
		Seed:         3,
		SMR:          true,
		WorkloadRate: 50,
	})
	if res.Injected == 0 {
		t.Fatal("no workload")
	}
	if res.SMs[0] == nil {
		t.Fatal("no state machine")
	}
}
