package redteam

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// frontierPath locates the committed reference artifact.
var frontierPath = filepath.Join("..", "..", "FRONTIER.json")

// TestFrontierAtLeastScripted pins the committed FRONTIER.json: every
// entry's candidate and minimized candidate re-evaluate to exactly the
// recorded values (the simulator is deterministic, so any drift — in
// either direction — means the protocols or the search changed and the
// artifact must be regenerated), the minimized candidate retains ≥
// MinKeep of the frontier objective, the recorded seeds match the
// candidate-derived seeds, and the frontier dominates (≥) every PR 4
// scripted attack under the same objective. A frontier value that falls
// below a scripted attack's is a protocol regression of the worst case
// — exactly what this test exists to catch loudly.
func TestFrontierAtLeastScripted(t *testing.T) {
	fr, err := ReadFrontier(frontierPath)
	if err != nil {
		t.Fatalf("read committed frontier: %v (regenerate: go run ./cmd/lumiere-bench -redteam -frontier FRONTIER.json)", err)
	}
	if len(fr.Entries) == 0 {
		t.Fatal("committed frontier has no entries")
	}
	const regen = "regenerate with: go run ./cmd/lumiere-bench -redteam -frontier FRONTIER.json"
	for i := range fr.Entries {
		entry := fr.Entries[i]
		if testing.Short() && entry.Objective == ObjP99Commit {
			continue // the SMR cells dominate the wall clock; tier-1 covers them
		}
		t.Run(fmt.Sprintf("%s/%s", entry.Protocol, entry.Objective), func(t *testing.T) {
			t.Parallel()
			if entry.F != fr.F {
				t.Fatalf("entry f=%d disagrees with frontier f=%d", entry.F, fr.F)
			}
			if want := CandidateSeed(fr.Seed, entry.Candidate.Legalize(fr.F)); entry.Seed != want {
				t.Errorf("recorded seed %d is not the candidate-derived seed %d — seed derivation drifted; %s",
					entry.Seed, want, regen)
			}
			if want := CandidateSeed(fr.Seed, entry.Minimized.Legalize(fr.F)); entry.MinimizedSeed != want {
				t.Errorf("recorded minimized seed %d is not candidate-derived (%d); %s",
					entry.MinimizedSeed, want, regen)
			}

			e := NewEvaluator(entry.Protocol, fr.F, entry.Objective, fr.Seed)
			if got := e.Eval(entry.Candidate); got.Value != entry.Value || got.Decided != entry.Decided {
				t.Errorf("frontier candidate re-evaluates to %.4f (decided=%v), recorded %.4f (decided=%v) — %s",
					got.Value, got.Decided, entry.Value, entry.Decided, regen)
			}
			minEv := e.Eval(entry.Minimized)
			if minEv.Value != entry.MinimizedValue {
				t.Errorf("minimized candidate re-evaluates to %.4f, recorded %.4f — %s",
					minEv.Value, entry.MinimizedValue, regen)
			}
			if minEv.Value < fr.MinKeep*entry.Value {
				t.Errorf("minimized scenario reproduces only %.4f of frontier %.4f (< %.0f%%)",
					minEv.Value, entry.Value, 100*fr.MinKeep)
			}

			// Monotone shrinkage of the recorded minimization.
			cv, mv := axisVector(entry.Candidate.Legalize(fr.F)), axisVector(entry.Minimized.Legalize(fr.F))
			for a := range cv {
				if mv[a] > cv[a] {
					t.Errorf("minimized candidate grew axis %d: %s -> %s", a, entry.Candidate, entry.Minimized)
				}
			}

			// Dominance over the scripted PR 4 corpus.
			for _, sc := range ScriptedCandidates(fr.F) {
				if got := e.Eval(sc); got.Value > entry.Value {
					t.Errorf("scripted attack %s scores %.4f > frontier %.4f: the searched frontier no longer dominates the scripted corpus — %s",
						sc, got.Value, entry.Value, regen)
				}
			}
		})
	}
}

// TestFrontierWANCoverage pins the WAN arm of the committed frontier:
// for every protocol, at least one frontier entry exercises a WAN axis
// (topology preset, clock drift or a straggler). The search space
// crosses every candidate with the WAN deployments, and a worst case
// that ignores all of them would mean the WAN axes cost nothing — a
// sign the axes are not wired into the materialized scenarios.
func TestFrontierWANCoverage(t *testing.T) {
	fr, err := ReadFrontier(frontierPath)
	if err != nil {
		t.Fatalf("read committed frontier: %v", err)
	}
	wan := func(c Candidate) bool {
		return c.Topology != "" || c.DriftPPM > 0 || c.Straggler > 0
	}
	covered := make(map[string]bool)
	for _, e := range fr.Entries {
		if wan(e.Candidate) {
			covered[string(e.Protocol)] = true
		}
	}
	for _, e := range fr.Entries {
		if !covered[string(e.Protocol)] {
			t.Errorf("protocol %s: no frontier entry on any WAN axis", e.Protocol)
			covered[string(e.Protocol)] = true // report once
		}
	}
}

// TestFrontierSearchDeterminism pins the acceptance property end to
// end: the full search — grid, evolution, minimization, serialization —
// over a small space is byte-identical at workers 1 vs 4.
func TestFrontierSearchDeterminism(t *testing.T) {
	objectives := []Objective{ObjSyncLatency}
	if !testing.Short() {
		objectives = Objectives()
	}
	run := func(workers int) []byte {
		return SearchFrontier(Config{
			F:          1,
			Seed:       23,
			Workers:    workers,
			Objectives: objectives,
			Space:      smokeSpace(1),
			SMRSpace:   smokeSpace(1),
			Evolve:     EvolveOptions{Generations: 2, Population: 6},
		}).JSON()
	}
	serial, pool := run(1), run(4)
	if !bytes.Equal(serial, pool) {
		t.Fatalf("frontier differs across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", serial, pool)
	}
}
