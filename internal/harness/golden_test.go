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
// EXPERIMENTS.md. `go test ./internal/harness -run 'Golden|ThroughputTable' -update`
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

// TestTablesGolden renders every table except the ThroughputTable
// section (6 s; TestThroughputTableWorkerIndependence checks the
// rendering it already produces) and compares against the golden file.
// Section names are stable keys of the golden file, not function names.
func TestTablesGolden(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	fs, fas := []int{1}, []int{0, 1}
	opts := SweepOptions{}
	pair := func(a, b *Table) string { return a.Render() + b.Render() }
	tables := []struct {
		name   string
		render func() string
	}{
		{"Table1WorstCase", func() string { return pair(Table1WorstCase(fs, goldenSeed, opts)) }},
		{"Table1Eventual", func() string { return pair(Table1Eventual(1, fas, goldenSeed, opts)) }},
		{"EventualScalingTable", func() string {
			return EventualScalingTable(EventualScalingData(fs, 1, goldenSeed, opts), fs, 1).Render()
		}},
		{"Figure1Table", func() string { return Figure1Table(fs, goldenSeed, opts).Render() }},
		{"ResponsivenessTable", func() string { return ResponsivenessTable(1, goldenSeed, opts).Render() }},
		{"HeavySyncTable", func() string { return HeavySyncTable(1, goldenSeed, opts).Render() }},
		{"ChaosTable", func() string { return ChaosTable(1, goldenSeed, opts).Render() }},
		{"EventualWordsTable", func() string { return EventualWordsTable(1, fas, goldenSeed, opts).Render() }},
		{"WordScalingTable", func() string { return WordScalingTable(fs, 1, goldenSeed, opts).Render() }},
		{"LargeNWordsTable", func() string { return LargeNWordsTable([]int{16}, goldenSeed, opts).Render() }},
		{"AttackTable", func() string { return AttackSweep(1, goldenSeed, opts).Table().Render() }},
		{"TopologyTable", func() string { return WANSweep(1, goldenSeed, opts).Table().Render() }},
		{"DriftToleranceTable", func() string { return DriftSweep(1, DriftPPMAxis, goldenSeed, opts).Table().Render() }},
		{"ThroughputUnderAttackTable", func() string {
			return ThroughputUnderAttackSweep(1, adversary.AttackViewDesync, goldenSeed, opts).Table().Render()
		}},
		{"RareSync", rareSyncPins},
	}
	for _, tc := range tables {
		checkGolden(t, tc.name, tc.render())
	}
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
