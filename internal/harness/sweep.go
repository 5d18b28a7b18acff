package harness

import (
	"runtime"
	"sync"
	"time"
)

// This file implements the parallel deterministic sweep engine: the
// substrate every experiment driver runs on (see DESIGN.md §4). A sweep
// takes a scenario matrix, fans the executions across a worker pool, and
// aggregates results in matrix order. Every cell runs with its
// scenario's own Seed, which the caller derives from (base seed, cell
// index) alone (DeriveSeed), so a sweep's results are byte-identical
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
	// KeepSeeds changes nothing: every cell runs with its scenario's
	// own Seed.
	//
	// Deprecated: leave it unset. It remains because the repository
	// benchmark (benchmark/) sets it.
	KeepSeeds bool
	// Progress, when non-nil, is called once per completed cell (in
	// completion order, serialized — it may update a shared display
	// without locking). done counts completed cells, total is the
	// matrix size.
	Progress func(done, total int, cell *SweepCell)
}

// SweepCell is one completed cell of a sweep.
type SweepCell struct {
	// Index is the cell's position in the scenario matrix.
	Index int
	// Scenario is the scenario as run.
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
// returns the results in matrix order. Each cell's execution is a pure
// function of its scenario, Seed included, so the aggregated results are
// independent of worker count and scheduling.
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
			for i := range jobs {
				t0 := time.Now()
				res := Run(scenarios[i])
				cells[i] = SweepCell{Index: i, Scenario: scenarios[i], Result: res, Elapsed: time.Since(t0)}
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

// GridShape is the shape of a grid sweep: Rows × Cols cells with Runs
// executions each. Every protocol × axis table driver is one grid.
type GridShape struct {
	Rows, Cols int
	// Runs is the number of executions per cell (zero means one).
	Runs int
	// SharedSeed gives every run of a cell the cell's seed,
	// DeriveSeed(seed, row*Cols+col), for cells whose runs differ by
	// construction rather than by randomness (the worst-case table's
	// strategies). By default every run has its own seed,
	// DeriveSeed(seed, flat index).
	SharedSeed bool
}

// Grid is a finished grid sweep: the SweepResult plus the shape that
// maps (row, col, run) onto its flat cell order.
type Grid struct {
	GridShape
	*SweepResult
}

// SweepGrid runs scenario(row, col, run) for every point of the grid as
// one Sweep, flattened rows outermost and runs innermost — the flat index
// of (row, col, run) is (row*Cols+col)*Runs+run — and seeds each
// execution from (seed, index) alone, so the grid is byte-identical at
// every worker count. The scenario builder's own Seed is overwritten.
func SweepGrid(shape GridShape, seed int64, opts SweepOptions, scenario func(row, col, run int) Scenario) *Grid {
	if shape.Runs == 0 {
		shape.Runs = 1
	}
	scenarios := make([]Scenario, shape.Rows*shape.Cols*shape.Runs)
	for i := range scenarios {
		cell, run := i/shape.Runs, i%shape.Runs
		scenarios[i] = scenario(cell/shape.Cols, cell%shape.Cols, run)
		if shape.SharedSeed {
			scenarios[i].Seed = DeriveSeed(seed, cell)
		} else {
			scenarios[i].Seed = DeriveSeed(seed, i)
		}
	}
	return &Grid{shape, Sweep(scenarios, opts)}
}

// Cell returns one execution of the grid.
func (g *Grid) Cell(row, col, run int) *SweepCell {
	return &g.Cells[(row*g.Cols+col)*g.Runs+run]
}

// Result returns the first (for most grids, the only) execution of a
// cell.
func (g *Grid) Result(row, col int) *Result { return g.Cell(row, col, 0).Result }

// cellAt indexes a report's exported row-major cell slice (one entry per
// grid cell, cols per row).
func cellAt[T any](cells []T, cols, row, col int) *T { return &cells[row*cols+col] }
