package harness

import (
	"runtime"
	"sync"
	"time"
)

// This file implements the parallel deterministic sweep engine: the
// substrate every experiment driver runs on (see DESIGN.md §4). A sweep
// takes a scenario matrix, fans the executions across a worker pool, and
// aggregates results in matrix order. Each cell's seed is derived from
// (base seed, cell index) alone, so a sweep's results are byte-identical
// regardless of the worker count or the order the pool happens to
// schedule cells in.

// DeriveSeed deterministically derives the seed for cell index of a sweep
// from the sweep's base seed using the splitmix64 finalizer. The result
// depends only on (base, index) — never on worker count, scheduling
// order, or wall-clock time — and consecutive indices map to
// well-separated seeds even for small bases.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// SweepOptions configures a sweep.
type SweepOptions struct {
	// Workers is the worker-pool size. Zero or negative means
	// runtime.NumCPU(); the pool never exceeds the matrix size.
	Workers int
	// BaseSeed is the sweep's base seed: cell i runs with seed
	// DeriveSeed(BaseSeed, i) unless KeepSeeds is set.
	BaseSeed int64
	// KeepSeeds preserves each scenario's own Seed instead of deriving
	// per-cell seeds from BaseSeed. Use it when the caller has already
	// assigned deterministic per-cell seeds.
	KeepSeeds bool
	// Progress, when non-nil, is called once per completed cell (in
	// completion order, serialized — it may update a shared display
	// without locking). done counts completed cells, total is the
	// matrix size.
	Progress func(done, total int, cell *SweepCell)
	// FreshCells disables the per-worker execution arenas: every cell
	// constructs its full scheduler/network/crypto/metrics/replica
	// stack from scratch instead of recycling the worker's. Results are
	// byte-identical either way (the determinism suites assert it);
	// the switch exists for those suites and for memory-constrained
	// runs, since an arena retains high-water-mark buffers for the
	// worker's lifetime.
	FreshCells bool
}

// SweepCell is one completed cell of a sweep.
type SweepCell struct {
	// Index is the cell's position in the scenario matrix.
	Index int
	// Scenario is the scenario as run, with the derived seed filled in.
	Scenario Scenario
	// Result is the execution's full result.
	Result *Result
	// Elapsed is the cell's wall-clock execution time.
	Elapsed time.Duration
}

// SweepResult aggregates a sweep in matrix order.
type SweepResult struct {
	// Cells holds one entry per scenario, in matrix order.
	Cells []SweepCell
	// Workers is the worker-pool size actually used.
	Workers int
	// Elapsed is the sweep's total wall-clock time.
	Elapsed time.Duration
}

// Results returns the cell results in matrix order.
func (r *SweepResult) Results() []*Result {
	out := make([]*Result, len(r.Cells))
	for i := range r.Cells {
		out[i] = r.Cells[i].Result
	}
	return out
}

// Sweep executes every scenario of the matrix on a worker pool and
// returns the results in matrix order. Scenario seeds are derived from
// (opts.BaseSeed, index) unless opts.KeepSeeds is set; either way each
// cell's execution is a pure function of its scenario, so the aggregated
// results are independent of worker count and scheduling.
func Sweep(scenarios []Scenario, opts SweepOptions) *SweepResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	cells := make([]SweepCell, len(scenarios))

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes Progress and the done counter
		done int
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One execution arena per worker: cell setup (scheduler,
			// network, crypto suite, metrics buffers, replica shells)
			// is constructed once here and recycled across all cells
			// the worker drains, so the sweep performs O(workers)
			// constructions instead of O(cells).
			var arena *Arena
			if !opts.FreshCells {
				arena = NewArena()
			}
			for i := range jobs {
				s := scenarios[i]
				if !opts.KeepSeeds {
					s.Seed = DeriveSeed(opts.BaseSeed, i)
				}
				t0 := time.Now()
				res := RunIn(arena, s)
				cells[i] = SweepCell{Index: i, Scenario: s, Result: res, Elapsed: time.Since(t0)}
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, len(scenarios), &cells[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range scenarios {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	return &SweepResult{Cells: cells, Workers: workers, Elapsed: time.Since(start)}
}

// gridShape is the shape of a grid sweep: rows × cols cells with runs
// executions each. Every protocol × axis table driver is one grid.
type gridShape struct {
	rows, cols int
	// runs is the number of executions per cell (zero means one).
	runs int
	// sharedSeed gives every run of a cell the cell's seed,
	// DeriveSeed(seed, row*cols+col), for cells whose runs differ by
	// construction rather than by randomness (Table1WorstCase's
	// strategies). By default every run has its own seed,
	// DeriveSeed(seed, flat index).
	sharedSeed bool
}

// grid is a finished grid sweep: the SweepResult plus the shape that
// maps (row, col, run) onto its flat cell order.
type grid struct {
	gridShape
	*SweepResult
}

// sweepGrid runs scenario(row, col, run) for every point of the grid as
// one Sweep, flattened rows outermost and runs innermost — the flat index
// of (row, col, run) is (row*cols+col)*runs+run — and seeds each
// execution from (seed, index) alone, so the grid is byte-identical at
// every worker count. The scenario builder's own Seed is overwritten.
func sweepGrid(shape gridShape, seed int64, opts SweepOptions, scenario func(row, col, run int) Scenario) *grid {
	if shape.runs == 0 {
		shape.runs = 1
	}
	scenarios := make([]Scenario, shape.rows*shape.cols*shape.runs)
	for i := range scenarios {
		cell, run := i/shape.runs, i%shape.runs
		scenarios[i] = scenario(cell/shape.cols, cell%shape.cols, run)
		if shape.sharedSeed {
			scenarios[i].Seed = DeriveSeed(seed, cell)
		} else {
			scenarios[i].Seed = DeriveSeed(seed, i)
		}
	}
	opts.KeepSeeds = true
	return &grid{shape, Sweep(scenarios, opts)}
}

// cell returns one execution of the grid.
func (g *grid) cell(row, col, run int) *SweepCell {
	return &g.Cells[(row*g.cols+col)*g.runs+run]
}

// result returns the first (for most grids, the only) execution of a
// cell.
func (g *grid) result(row, col int) *Result { return g.cell(row, col, 0).Result }

// cellAt indexes a report's exported row-major cell slice (one entry per
// grid cell, cols per row).
func cellAt[T any](cells []T, cols, row, col int) *T { return &cells[row*cols+col] }

// gridTable renders a "corner | col…" table with one row per name (the
// protocols, for all tables but the WAN one), each body cell rendered by
// cell(row, col).
func gridTable[R ~string](title, corner string, rows []R, cols []string, cell func(row, col int) string) *Table {
	t := &Table{Title: title, Header: append([]string{corner}, cols...)}
	for r, name := range rows {
		row := []string{string(name)}
		for c := range cols {
			row = append(row, cell(r, c))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// axisLabels formats an axis as column headers.
func axisLabels[V any](axis []V, label func(V) string) []string {
	out := make([]string, len(axis))
	for i, v := range axis {
		out[i] = label(v)
	}
	return out
}
