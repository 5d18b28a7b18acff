package harness

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lumiere/internal/adversary"
)

// testdata/tables.golden pins the rendering of every table the drivers
// produce, at seed 42 and f = 1: a driver refactor that moves a seed, a
// flat index or a format verb shows up as a diff here instead of only in
// EXPERIMENTS.md. `go test ./internal/harness -run Golden -update`
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

// TestTablesGolden is the determinism gate. It renders every table in
// two columns, Workers 1 and Workers 4, each on the sweep's reused
// per-worker arenas, and compares each rendering against the golden
// file: matching it in both columns makes a table byte-identical across
// worker counts. The RareSync pins run outside Sweep and are checked
// once. Section names are stable keys of the golden file, not function
// names; contains and lacks are shape checks on the rendering.
func TestTablesGolden(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	fs, fas := []int{1}, []int{0, 1}
	pair := func(a, b *Table) string { return a.Render() + b.Render() }
	tables := []struct {
		name     string
		render   func(opts SweepOptions) string
		contains []string
		lacks    string
	}{
		{name: "Table1WorstCase", render: func(opts SweepOptions) string { return pair(Table1WorstCase(fs, goldenSeed, opts)) }},
		{name: "Table1Eventual", render: func(opts SweepOptions) string { return pair(Table1Eventual(1, fas, goldenSeed, opts)) }},
		{name: "EventualScalingTable", render: func(opts SweepOptions) string {
			return EventualScalingTable(EventualScalingData(fs, 1, goldenSeed, opts), fs, 1).Render()
		}},
		{name: "Figure1Table", render: func(opts SweepOptions) string { return Figure1Table(fs, goldenSeed, opts).Render() }},
		{name: "ResponsivenessTable", render: func(opts SweepOptions) string { return ResponsivenessTable(1, goldenSeed, opts).Render() }},
		{name: "HeavySyncTable", render: func(opts SweepOptions) string { return HeavySyncTable(1, goldenSeed, opts).Render() }},
		{name: "ChaosTable", render: func(opts SweepOptions) string { return ChaosTable(1, goldenSeed, opts).Render() }},
		{name: "EventualWordsTable", render: func(opts SweepOptions) string { return EventualWordsTable(1, fas, goldenSeed, opts).Render() }},
		{name: "WordScalingTable", render: func(opts SweepOptions) string { return WordScalingTable(fs, 1, goldenSeed, opts).Render() }},
		{name: "LargeNWordsTable", render: func(opts SweepOptions) string { return LargeNWordsTable([]int{16}, goldenSeed, opts).Render() }},
		{name: "AttackTable", render: func(opts SweepOptions) string { return AttackSweep(1, goldenSeed, opts).Table().Render() },
			contains: []string{string(ProtoLumiere), adversary.AttackSaturate}},
		// Every WAN preset is in-model, so none may stall a protocol.
		{name: "TopologyTable", render: func(opts SweepOptions) string { return WANSweep(1, goldenSeed, opts).Table().Render() },
			contains: WANPresets, lacks: "stalled"},
		{name: "DriftToleranceTable", render: func(opts SweepOptions) string {
			return DriftSweep(1, DriftPPMAxis, goldenSeed, opts).Table().Render()
		}},
		{name: "ThroughputTable", render: func(opts SweepOptions) string { return ThroughputSweep(1, goldenSeed, opts).Table().Render() },
			contains: []string{string(ProtoLumiere), "6000/s b=256"}},
		{name: "ThroughputUnderAttackTable", render: func(opts SweepOptions) string {
			return ThroughputUnderAttackSweep(1, adversary.AttackViewDesync, goldenSeed, opts).Table().Render()
		}, contains: []string{"p99 blowup"}},
	}
	for _, workers := range []int{1, 4} {
		opts := SweepOptions{Workers: workers}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			for _, tc := range tables {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					t.Parallel()
					got := tc.render(opts)
					for _, want := range tc.contains {
						if !strings.Contains(got, want) {
							t.Errorf("%s lacks %q:\n%s", tc.name, want, got)
						}
					}
					if tc.lacks != "" && strings.Contains(got, tc.lacks) {
						t.Errorf("%s contains %q:\n%s", tc.name, tc.lacks, got)
					}
					checkGolden(t, tc.name, got)
				})
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
