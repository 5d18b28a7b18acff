package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// golden.json pins, for the simulator workloads at goldenSeed, every
// quantity that is an exact function of (scenario, seed): event,
// decision, word and commit counts, and the simulated-time metrics. A
// change that alters any of them has changed what the protocols do, not
// how fast the simulator runs them. Other seeds skip the pin and keep
// the invariant checks.
//
//go:embed golden.json
var goldenJSON []byte

const (
	goldenSeed = 42
	goldenPath = "benchmark/golden.json"
)

type goldenFile struct {
	Seed      int64                         `json:"seed"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// pin records a value golden.json fixes for this workload.
func (o *outcome) pin(name string, v float64) {
	if o.Pinned == nil {
		o.Pinned = make(map[string]float64)
	}
	o.Pinned[name] = v
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares the run's pinned values with golden.json.
func checkGolden(workload string, seed int64, o *outcome) {
	if len(o.Pinned) == 0 {
		return
	}
	if seed != goldenSeed {
		o.notef("golden: pin skipped (seed %d, pinned seed %d); invariants checked", seed, goldenSeed)
		return
	}
	g, err := loadGolden()
	if err != nil {
		o.problemf("%v", err)
		return
	}
	want, ok := g.Workloads[workload]
	if !ok {
		o.problemf("golden.json has no entry for %s", workload)
		return
	}
	if len(want) != len(o.Pinned) {
		o.problemf("golden.json pins %d values for %s, the run produced %d", len(want), workload, len(o.Pinned))
	}
	names := make([]string, 0, len(o.Pinned))
	for n := range o.Pinned {
		names = append(names, n)
	}
	sort.Strings(names)
	mismatches := 0
	for _, n := range names {
		if w, ok := want[n]; !ok || w != o.Pinned[n] {
			if mismatches++; mismatches <= 5 {
				o.problemf("golden mismatch: %s %s = %v, pinned %v", workload, n, o.Pinned[n], w)
			}
		}
	}
	if mismatches == 0 {
		o.notef("golden: %d pinned values match", len(names))
	}
}

// updateGoldenFile rewrites one workload's entry of golden.json in the
// source tree (run from the repository root).
func updateGoldenFile(workload string, seed int64, o *outcome) error {
	if seed != goldenSeed {
		return fmt.Errorf("golden.json pins seed %d, not %d", goldenSeed, seed)
	}
	if len(o.Pinned) == 0 {
		return nil
	}
	g := goldenFile{Seed: goldenSeed, Workloads: map[string]map[string]float64{}}
	if b, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", goldenPath, err)
		}
	}
	g.Workloads[workload] = o.Pinned
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("update golden: %w", err)
	}
	// The embedded copy is the old file; check against what was written.
	goldenJSON = b
	return nil
}
