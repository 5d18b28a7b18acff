package harness

import (
	"strings"
	"testing"
	"time"

	"lumiere/internal/network"
	"lumiere/internal/types"
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
	for _, p := range WANProtocols {
		for _, ppm := range DriftPPMAxis {
			if err := driftScenario(p, 1, ppm, 1).Validate(); err != nil {
				t.Errorf("drift %s ppm=%d: %v", p, ppm, err)
			}
		}
	}
}

// TestTopologyTableDeterministic pins the WAN table's byte-identity
// across worker counts: same seed, workers 1 vs 4, identical render.
func TestTopologyTableDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full WAN sweeps")
	}
	a := WANSweep(1, 424242, SweepOptions{Workers: 1}).Table().Render()
	b := WANSweep(1, 424242, SweepOptions{Workers: 4}).Table().Render()
	if a != b {
		t.Fatalf("WAN table differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", a, b)
	}
	for _, preset := range WANPresets {
		if !strings.Contains(a, preset) {
			t.Errorf("table missing preset row %q:\n%s", preset, a)
		}
	}
	if strings.Contains(a, "stalled") {
		t.Errorf("a WAN preset stalled a protocol — every preset is in-model:\n%s", a)
	}
}

// TestDriftConformanceInModel is the drift conformance gate: rates the
// harness accepts without UncheckedWAN must keep every Lemma 5.1–5.3
// obligation intact, for both compared protocols.
func TestDriftConformanceInModel(t *testing.T) {
	axis := []int64{0, 100, 10_000}
	if testing.Short() {
		axis = []int64{0, 10_000}
	}
	rep := DriftSweep(1, axis, 77, SweepOptions{})
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if !c.InModel {
			t.Errorf("%s ppm=%d: expected in-model", c.Protocol, c.PPM)
		}
		if !c.Decided {
			t.Errorf("%s ppm=%d: no decision after GST", c.Protocol, c.PPM)
		}
		for _, p := range c.Problems {
			t.Errorf("%s ppm=%d: %s", c.Protocol, c.PPM, p)
		}
	}
	if !rep.InModelClean() {
		t.Error("InModelClean() = false")
	}
}

// TestDriftToleranceDeterministic pins the drift table's byte-identity
// across worker counts on a two-point axis.
func TestDriftToleranceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two drift sweeps")
	}
	axis := []int64{0, 100_000}
	a := DriftSweep(1, axis, 7, SweepOptions{Workers: 1}).Table().Render()
	b := DriftSweep(1, axis, 7, SweepOptions{Workers: 4}).Table().Render()
	if a != b {
		t.Fatalf("drift table differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", a, b)
	}
}

// TestScenarioValidateWAN pins the scenario validation hardening: each
// malformed WAN axis is rejected with an error naming the problem, and
// UncheckedWAN waives exactly the in-model bounds, nothing else.
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
		{"zero f", func(s *Scenario) { s.F = 0 }, "need f ≥ 1"},
		{"n below 3f+1", func(s *Scenario) { s.N = 3 }, "n=3, f=1"},
		{"unknown protocol", func(s *Scenario) { s.Protocol = "foo" }, `unknown protocol "foo"`},
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

	// Waivers: UncheckedWAN admits out-of-model drift and stragglers…
	s := base()
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
