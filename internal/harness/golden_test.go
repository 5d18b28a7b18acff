package harness

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lumiere/internal/adversary"
)

// testdata/tables.golden pins the rendering of every section of
// Evaluation at GoldenScale and seed 42: a driver refactor that moves a
// seed, a flat index or a format verb shows up as a diff here instead of
// only in EXPERIMENTS.md. `go test ./internal/harness -run Golden -update`
// rewrites the file.

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden from the current renderings")

const (
	goldenPath = "testdata/tables.golden"
	goldenSeed = 42
)

// goldenMu serializes access to the golden file: the tables are checked
// from parallel tests, and -update rewrites it one section at a time.
var goldenMu sync.Mutex

// readGolden parses the golden file into its "### name" sections.
func readGolden() (map[string]string, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	sections := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "### "); ok {
			name = strings.TrimSuffix(rest, "\n")
			continue
		}
		sections[name] += line
	}
	return sections, nil
}

// checkGolden compares one rendering against its golden section (or,
// under -update, replaces the section).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	goldenMu.Lock()
	defer goldenMu.Unlock()
	sections, err := readGolden()
	if *updateGolden {
		if sections == nil {
			sections = map[string]string{}
		}
		sections[name] = got
		names := make([]string, 0, len(sections))
		for n := range sections {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			b.WriteString("### " + n + "\n" + sections[n])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if want, ok := sections[name]; !ok {
		t.Fatalf("%s: no section %q (run with -update)", goldenPath, name)
	} else if got != want {
		t.Fatalf("%s differs from %s:\n--- want ---\n%s\n--- got ---\n%s", name, goldenPath, want, got)
	}
}

// TestTablesGolden is the determinism gate. It runs every section of
// Evaluation at GoldenScale in two columns, Workers 1 and Workers 4,
// and compares each golden key's rendering against the golden file:
// matching it in both columns makes a table byte-identical across
// worker counts. A section runs once per column, however many keys its
// outputs fill, and a section's problem fails its first key. The
// RareSync pins run outside Sweep and are checked once. contains holds
// shape checks on the rendering.
func TestTablesGolden(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	contains := map[string][]string{
		"AttackTable":                {string(ProtoLumiere), adversary.AttackSaturate},
		"TopologyTable":              WANPresets,
		"ThroughputTable":            {string(ProtoLumiere), "6000/s b=256"},
		"ThroughputUnderAttackTable": {"p99 blowup"},
	}
	for _, workers := range []int{1, 4} {
		opts := SweepOptions{Workers: workers}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			for _, sec := range Evaluation {
				sec := sec
				run := sync.OnceValues(func() ([]Output, string) { return sec.Run(GoldenScale, goldenSeed, opts) })
				keys := append([]string{sec.Key}, sec.Also...)
				for _, key := range keys {
					key := key
					t.Run(key, func(t *testing.T) {
						t.Parallel()
						outs, problem := run()
						var b strings.Builder
						for _, o := range outs {
							k := o.Key
							if k == "" {
								k = sec.Key
							}
							if !slices.Contains(keys, k) {
								t.Errorf("output %q renders into %q, which %s does not list", o.Name, k, sec.Key)
							}
							if k == key {
								b.WriteString(o.Render())
							}
						}
						if key == sec.Key && problem != "" {
							t.Error(problem)
						}
						got := b.String()
						for _, want := range contains[key] {
							if !strings.Contains(got, want) {
								t.Errorf("%s lacks %q:\n%s", key, want, got)
							}
						}
						checkGolden(t, key, got)
					})
				}
			}
		})
	}
	t.Run("RareSync", func(t *testing.T) {
		t.Parallel()
		checkGolden(t, "RareSync", rareSyncPins())
	})
}

// rareSyncPins renders the RareSync golden section. RareSync is not in
// AllProtocols, so no table above runs it: the section pins its
// executions directly — a steady run, a crash run, every chaos condition
// and every attack strategy at f = 1 and f = 2, one line of simulated
// statistics each.
func rareSyncPins() string {
	var b strings.Builder
	for _, f := range []int{1, 2} {
		steady := Scenario{
			Name: fmt.Sprintf("steady-f%d", f), Protocol: ProtoRareSync, F: f,
			Delta: testDelta, DeltaActual: testDelta / 10, Duration: 30 * time.Second, Seed: goldenSeed,
		}
		crash := steady
		crash.Name = fmt.Sprintf("crash1-f%d", f)
		crash.Corruptions = adversary.CrashFirst(1)
		scenarios := []Scenario{steady, crash}
		for ci := range chaosConditions {
			scenarios = append(scenarios, chaosScenario(ProtoRareSync, f, ci, goldenSeed))
		}
		for _, spec := range AttackSpecs() {
			scenarios = append(scenarios, attackScenario(ProtoRareSync, f, spec, goldenSeed))
		}
		for _, s := range scenarios {
			res := Run(s)
			fmt.Fprintf(&b, "%s: decisions=%d words=%d heavy=%d final=%v events=%d\n", s.Name,
				res.DecisionCount(), res.Collector.WordsTotal(), len(res.Collector.HeavySyncViews(0)),
				res.FinalViews, res.Events)
		}
	}
	return b.String()
}
