package harness

import (
	"fmt"
	"strings"
	"testing"

	"lumiere/internal/adversary"
)

// conformanceBaseSeed pins the generated conformance corpus; bump it to
// roll a fresh corpus.
const conformanceBaseSeed = 2024

// conformanceScenarios builds the generated corpus: count scenarios from
// GenScenario, cycled across every protocol in AllProtocols so each
// protocol faces several distinct adversaries.
func conformanceScenarios(count int) []Scenario {
	out := make([]Scenario, count)
	for i := range out {
		s := GenScenario(DeriveSeed(conformanceBaseSeed, i))
		s.Protocol = AllProtocols[i%len(AllProtocols)]
		s.Name = fmt.Sprintf("conf-%02d-%s", i, s.Protocol)
		out[i] = s
	}
	return out
}

// TestConformanceGenerated is the cross-protocol conformance suite: a
// sweep of generated scenarios (random corruption sets including
// crash-recovery churn, adaptive attack strategies on the spare fault
// budget, delay policies, link conditions — partitions, loss,
// duplication, reorder jitter, omission budgets — GST, stagger, SMR
// on/off) over every protocol in AllProtocols, each run checked
// against the protocol-independent obligations of §2 (no invariant
// violations, honest decisions after GST, bounded final-view spread,
// SMR prefix consistency).
func TestConformanceGenerated(t *testing.T) {
	t.Parallel()
	count := 44
	if testing.Short() {
		count = 18
	}
	sr := Sweep(conformanceScenarios(count), SweepOptions{})
	for i := range sr.Cells {
		cell := &sr.Cells[i]
		t.Run(cell.Scenario.Name, func(t *testing.T) {
			for _, p := range ConformanceReport(cell.Result) {
				t.Error(p)
			}
			if t.Failed() {
				t.Logf("scenario: %+v", cell.Scenario)
			}
		})
	}
}

// TestChaosConformanceSweep is the chaos arm of the conformance suite:
// every generated cell carries guaranteed link conditions (GenChaos-
// Scenario), every protocol must meet the §2 obligations on them, and
// the rendered report must be byte-identical at every worker count.
// This is also CI's -race chaos-smoke target.
func TestChaosConformanceSweep(t *testing.T) {
	t.Parallel()
	count := 22
	if testing.Short() {
		count = 8
	}
	serial := ChaosSweep(count, conformanceBaseSeed, SweepOptions{Workers: 1})
	parallel := ChaosSweep(count, conformanceBaseSeed, SweepOptions{})
	for _, c := range serial.Cells {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for _, p := range c.Problems {
				t.Error(p)
			}
			if t.Failed() {
				t.Logf("scenario: %+v", GenChaosScenario(c.Seed))
			}
		})
	}
	if a, b := serial.Table().Render(), parallel.Table().Render(); a != b {
		t.Errorf("chaos report differs between 1 and %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			parallel.Workers, a, b)
	}
	if !serial.Conformant() {
		t.Errorf("chaos sweep not conformant: %d problems", serial.Problems)
	}
}

// TestGenChaosScenarioAlwaysConditioned: the chaos generator guarantees
// at least one link-condition axis (or churn) on every draw.
func TestGenChaosScenarioAlwaysConditioned(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 200; seed++ {
		s := GenChaosScenario(seed)
		churn := false
		for _, c := range s.Corruptions {
			if c.Behavior == adversary.BehaviorChurn {
				churn = true
			}
		}
		if len(s.Partitions) == 0 && s.Loss == 0 && s.Duplication == 0 &&
			s.ReorderJitter == 0 && !churn {
			t.Fatalf("seed %d: no chaos axis drawn: %+v", seed, s)
		}
	}
}

// TestGenScenarioDrawsAttacks: the generator actually exercises the
// adaptive-attack axis — a healthy fraction of draws carries a
// strategy — and every drawn spec respects the model: a registered
// strategy name, and attack processors plus static corruptions within
// the f budget (the harness would panic past it).
func TestGenScenarioDrawsAttacks(t *testing.T) {
	t.Parallel()
	known := make(map[string]bool)
	for _, name := range adversary.AttackNames() {
		known[name] = true
	}
	attacks, byName := 0, make(map[string]int)
	for seed := int64(0); seed < 400; seed++ {
		s := GenScenario(seed)
		if !s.Attack.Enabled() {
			continue
		}
		attacks++
		byName[s.Attack.Name]++
		if !known[s.Attack.Name] {
			t.Fatalf("seed %d: unknown attack strategy %q", seed, s.Attack.Name)
		}
		if s.Attack.Nodes < 1 || s.Attack.Nodes+len(s.Corruptions) > s.F {
			t.Fatalf("seed %d: attack %s×%d plus %d corruptions exceeds f=%d",
				seed, s.Attack.Name, s.Attack.Nodes, len(s.Corruptions), s.F)
		}
	}
	if attacks < 40 {
		t.Fatalf("only %d of 400 generated scenarios draw an attack", attacks)
	}
	if len(byName) < len(known) {
		t.Errorf("only strategies %v drawn over 400 seeds, want all of %v", byName, adversary.AttackNames())
	}
}

// TestGenScenarioDrawsWANAxes: the generator exercises the WAN axes —
// topology, drift, stragglers each land on a healthy fraction of draws
// — and every draw stays in-model: Validate accepts it without
// UncheckedWAN.
func TestGenScenarioDrawsWANAxes(t *testing.T) {
	t.Parallel()
	topos, drifts, procs := 0, 0, 0
	for seed := int64(0); seed < 400; seed++ {
		s := GenScenario(seed)
		if s.UncheckedWAN {
			t.Fatalf("seed %d: generator drew UncheckedWAN", seed)
		}
		s.Protocol = AllProtocols[seed%int64(len(AllProtocols))]
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
		if s.Topology != nil {
			topos++
		}
		if len(s.DriftPPM) > 0 {
			drifts++
		}
		if len(s.ProcDelays) > 0 {
			procs++
		}
	}
	if topos < 80 || drifts < 80 || procs < 50 {
		t.Fatalf("WAN axes underdrawn over 400 seeds: topology %d, drift %d, stragglers %d", topos, drifts, procs)
	}
}

// TestGenScenarioDeterministic: the generator is a pure function of its
// seed, and distinct seeds explore distinct scenarios.
func TestGenScenarioDeterministic(t *testing.T) {
	t.Parallel()
	// Scenario carries a *Topology, so %+v alone would print a pointer
	// address; append the dereferenced topology to get a value key.
	key := func(s Scenario) string {
		k := fmt.Sprintf("%+v", s)
		if s.Topology != nil {
			k += fmt.Sprintf(" topo=%+v", *s.Topology)
		}
		return k
	}
	a, b := GenScenario(99), GenScenario(99)
	ka, kb := key(a), key(b)
	if ak, bk := strings.ReplaceAll(ka, fmt.Sprintf("%p", a.Topology), "T"), strings.ReplaceAll(kb, fmt.Sprintf("%p", b.Topology), "T"); ak != bk {
		t.Fatalf("GenScenario not deterministic:\n%s\n%s", ak, bk)
	}
	distinct := make(map[string]bool)
	for seed := int64(0); seed < 50; seed++ {
		s := GenScenario(seed)
		k := key(s)
		if s.Topology != nil {
			k = strings.ReplaceAll(k, fmt.Sprintf("%p", s.Topology), "T")
		}
		distinct[k] = true
	}
	if len(distinct) < 45 {
		t.Fatalf("generator collapsed: only %d distinct scenarios of 50 seeds", len(distinct))
	}
}
