package harness

import (
	"fmt"
	"testing"
	"time"
)

// sweepTestMatrix is a small protocol × f matrix of fast scenarios.
func sweepTestMatrix() []Scenario {
	var out []Scenario
	for _, p := range []Protocol{ProtoLumiere, ProtoLP22, ProtoFever} {
		for _, f := range []int{1, 2} {
			out = append(out, Scenario{
				Name:     string(p),
				Protocol: p,
				F:        f,
				Delta:    testDelta,
				Duration: 10 * time.Second,
			})
		}
	}
	return out
}

// sweepFingerprint reduces a sweep to a comparable string.
func sweepFingerprint(t *testing.T, sr *SweepResult) string {
	t.Helper()
	tb := &Table{Title: "sweep", Header: []string{"cell", "seed", "decisions", "msgs", "events"}}
	for _, c := range sr.Cells {
		tb.AddRow(c.Scenario.Name,
			fmt.Sprintf("%d", c.Scenario.Seed),
			fmt.Sprintf("%d", c.Result.DecisionCount()),
			fmt.Sprintf("%d", c.Result.Collector.HonestSends()),
			fmt.Sprintf("%d", c.Result.Events))
	}
	return tb.Render()
}

// TestSweepDeterministicAcrossWorkerCounts: the same matrix and base seed
// produce byte-identical results at every worker count.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	matrix := sweepTestMatrix()
	var want string
	for _, workers := range []int{1, 2, 4, 16} {
		sr := Sweep(matrix, SweepOptions{Workers: workers, BaseSeed: 42})
		got := sweepFingerprint(t, sr)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d diverged:\n%s\nvs workers=1:\n%s", workers, got, want)
		}
	}
}

// TestSweepTableOutputDeterministic: the rendered Table 1 and scaling
// tables are byte-identical at 1 worker and N workers (the acceptance
// bar for the sweep engine).
func TestSweepTableOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep in -short mode")
	}
	t.Parallel()
	fs := []int{1}
	fas := []int{0, 1}
	render := func(workers int) string {
		opts := SweepOptions{Workers: workers}
		c1, l1 := Table1Eventual(1, fas, 7, opts)
		sc := EventualScalingData(fs, 1, 7, opts)
		return c1.Render() + l1.Render() + EventualScalingTable(sc, fs, 1).Render()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("table output differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestSweepOrderingAndTiming: cells come back in matrix order with their
// scenarios' derived seeds filled in and per-cell timings recorded.
func TestSweepOrderingAndTiming(t *testing.T) {
	t.Parallel()
	matrix := sweepTestMatrix()
	sr := Sweep(matrix, SweepOptions{Workers: 3, BaseSeed: 11})
	if len(sr.Cells) != len(matrix) {
		t.Fatalf("got %d cells for %d scenarios", len(sr.Cells), len(matrix))
	}
	if sr.Workers != 3 {
		t.Fatalf("workers = %d", sr.Workers)
	}
	for i, c := range sr.Cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if want := DeriveSeed(11, i); c.Scenario.Seed != want {
			t.Fatalf("cell %d seed = %d, want %d", i, c.Scenario.Seed, want)
		}
		if c.Result == nil || c.Result.DecisionCount() == 0 {
			t.Fatalf("cell %d produced no decisions", i)
		}
		if c.Elapsed <= 0 {
			t.Fatalf("cell %d has no timing", i)
		}
	}
	if sr.Elapsed <= 0 {
		t.Fatal("sweep has no total timing")
	}
}

// TestSweepKeepSeeds: KeepSeeds preserves the scenarios' own seeds.
func TestSweepKeepSeeds(t *testing.T) {
	t.Parallel()
	matrix := sweepTestMatrix()
	for i := range matrix {
		matrix[i].Seed = int64(1000 + i)
	}
	sr := Sweep(matrix, SweepOptions{Workers: 2, BaseSeed: 5, KeepSeeds: true})
	for i, c := range sr.Cells {
		if c.Scenario.Seed != int64(1000+i) {
			t.Fatalf("cell %d seed = %d, want %d", i, c.Scenario.Seed, 1000+i)
		}
	}
}

// TestSweepProgress: the progress callback fires exactly once per cell
// with a monotonically increasing done count.
func TestSweepProgress(t *testing.T) {
	t.Parallel()
	matrix := sweepTestMatrix()
	seen := make(map[int]bool)
	last := 0
	Sweep(matrix, SweepOptions{Workers: 4, Progress: func(done, total int, cell *SweepCell) {
		if total != len(matrix) {
			t.Errorf("total = %d", total)
		}
		if done != last+1 {
			t.Errorf("done jumped %d -> %d", last, done)
		}
		last = done
		if seen[cell.Index] {
			t.Errorf("cell %d reported twice", cell.Index)
		}
		seen[cell.Index] = true
	}})
	if len(seen) != len(matrix) {
		t.Fatalf("progress fired for %d of %d cells", len(seen), len(matrix))
	}
}

// TestDeriveSeedStable pins the derivation so sweeps stay reproducible
// across releases (changing DeriveSeed silently rerolls every recorded
// experiment).
func TestDeriveSeedStable(t *testing.T) {
	t.Parallel()
	if a, b := DeriveSeed(42, 0), DeriveSeed(42, 0); a != b {
		t.Fatalf("unstable: %d vs %d", a, b)
	}
	if DeriveSeed(42, 0) == DeriveSeed(42, 1) {
		t.Fatal("adjacent indices collide")
	}
	if DeriveSeed(42, 0) == DeriveSeed(43, 0) {
		t.Fatal("adjacent bases collide")
	}
	// Distinctness over a window large enough for any realistic matrix.
	seen := make(map[int64]bool)
	for i := 0; i < 4096; i++ {
		s := DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("collision at index %d", i)
		}
		seen[s] = true
	}
}

// TestSweepGrid pins the grid driver every table runs on, with a fake
// 2 × 3 × 2 grid of 1-second scenarios: rows outermost and runs innermost
// in the flat order, per-run derived seeds by default, one shared seed per
// cell in sharedSeed mode, and identical results at any worker count.
func TestSweepGrid(t *testing.T) {
	t.Parallel()
	const rows, cols, runs, seed = 2, 3, 2, 99
	name := func(row, col, run int) string { return fmt.Sprintf("r%d-c%d-u%d", row, col, run) }
	for _, shared := range []bool{false, true} {
		shape := gridShape{rows: rows, cols: cols, runs: runs, sharedSeed: shared}
		var want string
		for _, workers := range []int{1, 4} {
			g := sweepGrid(shape, seed, SweepOptions{Workers: workers}, func(row, col, run int) Scenario {
				return Scenario{Name: name(row, col, run), F: 1, Delta: testDelta, Duration: time.Second, Seed: -1}
			})
			if len(g.Cells) != rows*cols*runs {
				t.Fatalf("shared=%v: %d cells, want %d", shared, len(g.Cells), rows*cols*runs)
			}
			for row := 0; row < rows; row++ {
				for col := 0; col < cols; col++ {
					for run := 0; run < runs; run++ {
						c := g.cell(row, col, run)
						flat := (row*cols+col)*runs + run
						if c.Index != flat || c.Scenario.Name != name(row, col, run) {
							t.Fatalf("shared=%v: cell(%d,%d,%d) is flat %d %q, want flat %d", shared, row, col, run, c.Index, c.Scenario.Name, flat)
						}
						wantSeed := DeriveSeed(seed, flat)
						if shared {
							wantSeed = DeriveSeed(seed, row*cols+col)
						}
						if c.Scenario.Seed != wantSeed || c.Result.Scenario.Seed != wantSeed {
							t.Fatalf("shared=%v: cell(%d,%d,%d) seed %d, want %d", shared, row, col, run, c.Scenario.Seed, wantSeed)
						}
					}
				}
			}
			if g.result(1, 2) != g.cell(1, 2, 0).Result {
				t.Fatalf("shared=%v: result(row, col) is not run 0", shared)
			}
			if got := sweepFingerprint(t, g.SweepResult); want == "" {
				want = got
			} else if got != want {
				t.Fatalf("shared=%v workers=%d diverged:\n%s\nvs workers=1:\n%s", shared, workers, got, want)
			}
		}
	}
}

// TestGridTable pins the table builder: corner, one row per name, cells
// addressed (row, col), and cellAt's row-major indexing.
func TestGridTable(t *testing.T) {
	t.Parallel()
	flat := []int{0, 1, 2, 3, 4, 5}
	tb := gridTable("t", "protocol", []Protocol{ProtoLumiere, ProtoLP22}, []string{"a", "b", "c"}, func(row, col int) string {
		return fmt.Sprint(*cellAt(flat, 3, row, col))
	})
	want := "== t ==\nprotocol  a  b  c\n--------  -  -  -\nlumiere   0  1  2\nlp22      3  4  5\n"
	if got := tb.Render(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}
