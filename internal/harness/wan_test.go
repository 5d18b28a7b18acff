package harness

import (
	"strings"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/network"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// TestPresetTopologyValidates: every preset must validate by
// construction at any n and the standard Δ — the presets are the rows
// of a published table, so a preset that needs UncheckedWAN would be a
// bug.
func TestPresetTopologyValidates(t *testing.T) {
	for _, name := range WANPresets {
		for _, n := range []int{4, 7, 13, 40} {
			topo := PresetTopology(name, n, AttackDelta)
			if err := topo.Validate(n, AttackDelta); err != nil {
				t.Errorf("preset %q at n=%d: %v", name, n, err)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown preset did not panic")
		}
	}()
	PresetTopology("mars", 4, AttackDelta)
}

// TestWANScenariosValid: the WAN table's generated scenarios pass
// Validate — the same check run() enforces, asserted directly so a
// preset edit that breaks it fails here with the descriptive error.
func TestWANScenariosValid(t *testing.T) {
	for _, preset := range WANPresets {
		for _, p := range WANProtocols {
			for _, s := range []Scenario{wanSyncScenario(preset, p, 1, 1), wanSMRScenario(preset, p, 1, 1)} {
				if err := s.Validate(); err != nil {
					t.Errorf("%s: %v", s.Name, err)
				}
			}
		}
	}
}

// TestScenarioValidateWAN pins the scenario validation hardening: each
// malformed WAN axis, duration, probability, fault set, fault budget or
// client workload is rejected with
// an error naming the problem, and UncheckedWAN waives exactly the
// in-model bounds, nothing else.
func TestScenarioValidateWAN(t *testing.T) {
	delta := 50 * time.Millisecond
	base := func() Scenario {
		return Scenario{Protocol: ProtoLumiere, F: 1, Delta: delta, Duration: time.Second}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"topology class past delta", func(s *Scenario) {
			s.Topology = &network.Topology{Regions: []int{2, 2}, Inter: 60 * time.Millisecond}
		}, "exceeds Δ=50ms"},
		{"topology wrong n", func(s *Scenario) {
			s.Topology = &network.Topology{Regions: []int{2, 3}, Inter: time.Millisecond}
		}, "scenario has n=4"},
		{"topology and delay", func(s *Scenario) {
			s.Topology = &network.Topology{Regions: []int{4}}
			s.Delay = network.Fixed{D: time.Millisecond}
		}, "the topology is the delay model"},
		{"omission budget past f", func(s *Scenario) {
			s.OmissionBudget = network.OmissionBudget{MaxMessages: 1, MaxSenders: 2}
		}, "1..f=1 senders, got 2"},
		{"omission budget without a sender cap", func(s *Scenario) {
			s.OmissionBudget = network.OmissionBudget{MaxMessages: 1}
		}, "1..f=1 senders, got 0"},
		{"partition out of range", func(s *Scenario) {
			s.Partitions = [][]types.NodeID{{0, 9}}
		}, "references processor 9"},
		{"drift past budget", func(s *Scenario) {
			s.DriftPPM = []int64{200_000} // Γ=10Δ: 200k ppm drifts 2Δ
		}, "set UncheckedWAN"},
		{"drift hard range", func(s *Scenario) {
			s.UncheckedWAN = true
			s.DriftPPM = []int64{600_000}
		}, "hard range"},
		{"skew past delta", func(s *Scenario) {
			s.DriftSkew = []time.Duration{60 * time.Millisecond}
		}, "exceeds Δ=50ms"},
		{"too many drift rates", func(s *Scenario) {
			s.DriftPPM = make([]int64, 9)
		}, "for n=4"},
		{"proc delay past delta", func(s *Scenario) {
			s.ProcDelays = []time.Duration{60 * time.Millisecond}
		}, "set UncheckedWAN"},
		{"negative proc delay", func(s *Scenario) {
			s.UncheckedWAN = true
			s.ProcDelays = []time.Duration{-time.Millisecond}
		}, "negative proc delay"},
		{"double proc delays", func(s *Scenario) {
			s.Topology = &network.Topology{Regions: []int{4}, ProcDelays: []time.Duration{time.Millisecond}}
			s.ProcDelays = []time.Duration{time.Millisecond}
		}, "both ProcDelays and Topology.ProcDelays"},
		{"corruption out of range", func(s *Scenario) {
			s.Corruptions = adversary.CrashSet(4)
		}, "names processor 4; scenario has n=4"},
		{"crashes past f", func(s *Scenario) {
			s.Corruptions = adversary.CrashFirst(2)
		}, "2 faulty processors"},
		{"crash plus attack past f", func(s *Scenario) {
			s.Corruptions = adversary.CrashFirst(1)
			s.Attack = adversary.AttackSpec{Name: adversary.AttackViewDesync}
		}, "2 faulty processors"},
		{"unknown attack", func(s *Scenario) {
			s.Attack = adversary.AttackSpec{Name: "foo"}
		}, `unknown attack strategy "foo"`},
		{"negative delta", func(s *Scenario) { s.Delta = -time.Millisecond }, "Delta = -1ms"},
		{"negative actual delay", func(s *Scenario) { s.DeltaActual = -time.Millisecond }, "DeltaActual = -1ms"},
		{"negative GST", func(s *Scenario) { s.GST = -time.Second }, "GST = -1s"},
		{"negative duration", func(s *Scenario) { s.Duration = -time.Second }, "Duration = -1s"},
		{"negative stagger", func(s *Scenario) { s.StartStagger = -time.Second }, "StartStagger = -1s"},
		{"negative loss horizon", func(s *Scenario) { s.LossUntil = -time.Second }, "LossUntil = -1s"},
		{"negative partition heal", func(s *Scenario) { s.PartitionHeal = -time.Second }, "PartitionHeal = -1s"},
		{"negative reorder jitter", func(s *Scenario) { s.ReorderJitter = -time.Second }, "ReorderJitter = -1s"},
		{"loss above 1", func(s *Scenario) { s.Loss = 1.5 }, "need probabilities in [0, 1]"},
		{"negative duplication", func(s *Scenario) { s.Duplication = -0.1 }, "need probabilities in [0, 1]"},
		{"zero f", func(s *Scenario) { s.F = 0 }, "need f ≥ 1"},
		{"n below 3f+1", func(s *Scenario) { s.N = 3 }, "n=3, f=1"},
		{"unknown protocol", func(s *Scenario) { s.Protocol = "foo" }, `unknown protocol "foo"`},
		{"workload rate 0", func(s *Scenario) {
			s.SMR, s.Workload = true, &workload.Config{Rate: 0}
		}, "Workload.Rate = 0"},
		{"negative payload pad", func(s *Scenario) {
			s.SMR, s.Workload = true, &workload.Config{Rate: 10, PayloadPad: -1}
		}, "Workload.PayloadPad = -1"},
		{"negative clients", func(s *Scenario) {
			s.SMR, s.Workload = true, &workload.Config{Rate: 10, Clients: -3}
		}, "Workload.Clients = -3"},
		{"closed-loop clients", func(s *Scenario) {
			s.SMR, s.Workload = true, &workload.Config{Rate: 10, Closed: true}
		}, "Workload.Closed"},
		{"workload without SMR", func(s *Scenario) {
			s.Workload = &workload.Config{Rate: 10}
		}, "Workload is set but SMR is not"},
		{"command with padding", func(s *Scenario) {
			s.SMR, s.Workload = true, &workload.Config{Rate: 10, PayloadPad: 8, Command: kvCommand}
		}, "Workload.PayloadPad"},
	}
	for _, c := range cases {
		if c.want == "" {
			continue
		}
		s := base()
		c.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}

	// A workload on the SMR layer with its own payloads is well formed.
	s := base()
	s.SMR, s.Workload = true, &workload.Config{Rate: 10, Clients: 64, Command: kvCommand}
	if err := s.Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}

	// Waivers: UncheckedWAN admits out-of-model drift and stragglers…
	s = base()
	s.UncheckedWAN = true
	s.DriftPPM = []int64{400_000}
	s.DriftSkew = []time.Duration{time.Second}
	s.ProcDelays = []time.Duration{time.Second}
	if err := s.Validate(); err != nil {
		t.Errorf("UncheckedWAN did not waive in-model bounds: %v", err)
	}
	// …but never a topology past Δ.
	s = base()
	s.UncheckedWAN = true
	s.Topology = &network.Topology{Regions: []int{4}, Intra: time.Hour}
	if err := s.Validate(); err == nil {
		t.Error("UncheckedWAN waived the topology Δ bound")
	}
}

// TestRunRejectsInvalidScenario: run refuses to execute a scenario that
// fails validation, panicking with the descriptive error rather than
// producing a silently-distorted table.
func TestRunRejectsInvalidScenario(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("run did not panic on an invalid scenario")
		}
		if !strings.Contains(r.(string), "exceeds Δ") {
			t.Fatalf("panic %q does not carry the validation error", r)
		}
	}()
	Run(Scenario{
		Protocol: ProtoLumiere,
		F:        1,
		Delta:    50 * time.Millisecond,
		Duration: time.Second,
		Topology: &network.Topology{Regions: []int{4}, Intra: time.Hour},
	})
}

// TestStragglerDelaysDelivery: a per-node processing delay shifts every
// delivery into the straggler without touching the network model — the
// run still decides, and the topology-free control matches the plain
// scenario.
func TestStragglerDelaysDelivery(t *testing.T) {
	s := Scenario{
		Protocol:   ProtoLumiere,
		F:          1,
		Delta:      50 * time.Millisecond,
		Duration:   20 * time.Second,
		Seed:       5,
		ProcDelays: []time.Duration{0, 0, 0, 40 * time.Millisecond},
	}
	res := Run(s)
	if d, ok := res.Collector.FirstDecisionAfter(res.GST); !ok {
		t.Fatal("straggler run never decided")
	} else if d.At == 0 {
		t.Fatal("decision at time zero")
	}
}
