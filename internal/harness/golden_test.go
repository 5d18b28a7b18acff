package harness_test

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
	"lumiere/internal/eval"
	"lumiere/internal/harness"
	"lumiere/internal/redteam"
)

// testdata/tables.golden pins the rendering of every section of
// eval.Evaluation at eval.GoldenScale and seed 42: a driver refactor
// that moves a seed, a flat index or a format verb shows up as a diff
// here instead of only in EXPERIMENTS.md. The pins stay beside the cell
// API every section runs on, so an engine change diffs here too.
// `go test ./internal/harness -run Golden -update` rewrites the file.

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
// eval.Evaluation at eval.GoldenScale in two columns, Workers 1 and
// Workers 4, and compares each golden key's rendering against the golden
// file: matching it in both columns makes a table byte-identical across
// worker counts. A section runs once per column, however many keys its
// outputs fill, and a section's problem fails its first key unless
// problems pins it. The RareSync pins run outside Sweep and are checked
// once. contains and rows hold shape checks on the rendering: a
// substring each, and a table row opening with each listed pair of
// cells. problems holds the one problem a section reports at
// GoldenScale: the red-team smoke search finds NK20's chained HotStuff
// committing nothing under complexity-saturate at n = 4 (an open fault,
// ROADMAP 29(e)), so the pin fails when that stall is mended or another
// one appears.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run in -short mode")
	}
	t.Parallel()
	contains := map[string][]string{
		"AttackTable":                {string(harness.ProtoLumiere), adversary.AttackSaturate},
		"TopologyTable":              harness.WANPresets,
		"ThroughputTable":            {string(harness.ProtoLumiere), "6000/s b=256"},
		"ThroughputUnderAttackTable": {"p99 blowup"},
	}
	var frontierRows [][2]string
	for _, p := range harness.AllProtocols {
		for _, obj := range redteam.Objectives() {
			frontierRows = append(frontierRows, [2]string{string(p), string(obj)})
		}
	}
	rows := map[string][][2]string{"RedTeamFrontier": frontierRows}
	problems := map[string]string{
		"RedTeamFrontier": "red-team search stalled nk20/p99-commit: a model-legal scenario defeated a protocol",
	}
	for _, workers := range []int{1, 4} {
		opts := harness.SweepOptions{Workers: workers}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			for _, sec := range eval.Evaluation {
				sec := sec
				run := sync.OnceValues(func() ([]eval.Output, string) { return sec.Run(eval.GoldenScale, goldenSeed, opts) })
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
						if key == sec.Key && problem != problems[key] {
							t.Errorf("problem %q, want %q", problem, problems[key])
						}
						got := b.String()
						for _, want := range contains[key] {
							if !strings.Contains(got, want) {
								t.Errorf("%s lacks %q:\n%s", key, want, got)
							}
						}
						for _, row := range rows[key] {
							if !hasRow(got, row[0], row[1]) {
								t.Errorf("%s has no %s %s row:\n%s", key, row[0], row[1], got)
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

// hasRow reports whether a rendered table has a row whose first two
// cells are first and second.
func hasRow(table, first, second string) bool {
	for _, line := range strings.Split(table, "\n") {
		if cells := strings.Fields(line); len(cells) >= 2 && cells[0] == first && cells[1] == second {
			return true
		}
	}
	return false
}

// rareSyncPins renders the RareSync golden section. RareSync is not in
// AllProtocols, so no table runs it: the section pins its executions
// directly — a steady run, a crash run, every chaos-table condition and
// every attack strategy at f = 1 and f = 2, one line of simulated
// statistics each.
func rareSyncPins() string {
	const delta = 50 * time.Millisecond
	var b strings.Builder
	for _, f := range []int{1, 2} {
		steady := harness.Scenario{
			Name: fmt.Sprintf("steady-f%d", f), Protocol: harness.ProtoRareSync, F: f,
			Delta: delta, DeltaActual: delta / 10, Duration: 30 * time.Second, Seed: goldenSeed,
		}
		crash := steady
		crash.Name = fmt.Sprintf("crash1-f%d", f)
		crash.Corruptions = adversary.CrashFirst(1)
		scenarios := append([]harness.Scenario{steady, crash}, eval.ChaosScenarios(harness.ProtoRareSync, f, goldenSeed)...)
		for _, spec := range harness.AttackSpecs() {
			scenarios = append(scenarios, harness.AttackScenario(harness.ProtoRareSync, f, spec, goldenSeed))
		}
		for _, s := range scenarios {
			res := harness.Run(s)
			fmt.Fprintf(&b, "%s: decisions=%d words=%d heavy=%d final=%v events=%d\n", s.Name,
				res.DecisionCount(), res.Collector.WordsTotal(), len(res.Collector.HeavySyncViews(0)),
				res.FinalViews, res.Events)
		}
	}
	return b.String()
}
