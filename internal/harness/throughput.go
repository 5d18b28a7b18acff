package harness

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/statemachine"
	"lumiere/internal/workload"
)

// This file implements the SMR throughput experiments: open-loop client
// populations (internal/workload) driving chained HotStuff over each
// view-synchronization protocol, measured in committed commands per
// second and submit→commit latency percentiles. ThroughputSweep sweeps
// protocols × offered load × batch size in steady state;
// ThroughputUnderAttackSweep pits a fixed load against the view-desync
// strategy and reports what the attack does to p99 commit latency.

// ThroughputLoads is the offered-load axis (commands per second) of the
// throughput table. The loads are deliberately non-divisors of 10⁹:
// the accumulator pacer injects them exactly (workload.Pacer).
var ThroughputLoads = []int64{300, 1500, 6000}

// ThroughputBatches is the block-batch-size axis of the throughput
// table.
var ThroughputBatches = []int{64, 256}

// ThroughputClients is the logical client population behind the
// throughput tables. Clients are materialized only as hashes of command
// indices, so the population costs no per-client state.
const ThroughputClients = 1_000_000

// ThroughputPayloadPad is the filler bytes per command in the
// throughput tables; proposals are charged ⌈payload/32⌉ words for it
// (msg.PayloadWords), so words/cmd reflects data-plane traffic too.
const ThroughputPayloadPad = 64

// throughputWarmup is the prefix of each run excluded from commit
// statistics (ramp-up views and cold mempools).
const throughputWarmup = 3 * time.Second

// throughputScenario builds one cell: an SMR run at Δ = 50ms, δ = Δ/10,
// with an open-loop population offering `load` commands per second into
// every honest replica and blocks capped at `batch` commands. The
// Counter state machine keeps execution O(1) per command at any load.
func throughputScenario(p Protocol, f int, load int64, batch int, seed int64) Scenario {
	delta := 50 * time.Millisecond
	return Scenario{
		Name:            fmt.Sprintf("smr-tput-%s-f%d-load%d-batch%d", p, f, load, batch),
		Protocol:        p,
		F:               f,
		Delta:           delta,
		DeltaActual:     delta / 10,
		Duration:        15 * time.Second,
		Seed:            seed,
		SMR:             true,
		SMRBatchSize:    batch,
		NewStateMachine: func() statemachine.StateMachine { return statemachine.NewCounter() },
		Workload: &workload.Config{
			Clients:    ThroughputClients,
			Rate:       load,
			PayloadPad: ThroughputPayloadPad,
		},
	}
}

// ThroughputCell is one protocol × load × batch cell.
type ThroughputCell struct {
	// Protocol, Load and Batch identify the cell.
	Protocol Protocol
	Load     int64
	Batch    int
	// Seed is the cell's derived seed.
	Seed int64
	// Submitted and Committed count workload commands over the whole
	// run; commands in flight at the horizon are submitted, uncommitted.
	Submitted int64
	Committed int64
	// PerSec is the committed-command throughput after warmup; P50/P99/
	// Mean/Max are submit→first-commit latency percentiles after warmup.
	PerSec              float64
	P50, P99, Mean, Max time.Duration
	// WordsPerCmd is total honest words divided by committed commands
	// (whole run): the communication price of one committed command,
	// view synchronization and data plane included.
	WordsPerCmd float64
}

// ThroughputReport aggregates a throughput sweep.
type ThroughputReport struct {
	// Cells holds protocols outer (AllProtocols order), then loads, then
	// batches (ThroughputLoads × ThroughputBatches order).
	Cells []ThroughputCell
	// Workers is the worker-pool size the sweep used; Elapsed its
	// wall-clock time.
	Workers int
	Elapsed time.Duration
}

// measureThroughput extracts one cell from a finished SMR run.
func measureThroughput(res *Result) ThroughputCell {
	s := res.Scenario
	cell := ThroughputCell{
		Protocol:  s.Protocol,
		Load:      s.Workload.Rate,
		Batch:     s.SMRBatchSize,
		Seed:      s.Seed,
		Submitted: int64(res.Injected),
		Committed: res.Collector.CommitCount(),
	}
	warm := res.GST.Add(throughputWarmup)
	st := res.Collector.CommitLatencyStats(warm)
	cell.PerSec = st.PerSec
	cell.P50, cell.P99 = st.P50, st.P99
	cell.Mean, cell.Max = st.Mean, st.Max
	if cell.Committed > 0 {
		cell.WordsPerCmd = float64(res.Collector.WordsTotal()) / float64(cell.Committed)
	}
	return cell
}

// ThroughputSweep runs the AllProtocols × ThroughputLoads ×
// ThroughputBatches matrix on the sweep engine. Cell seeds derive from
// (seed, cell index), so the report is byte-identical at every worker
// count.
func ThroughputSweep(f int, seed int64, opts SweepOptions) *ThroughputReport {
	axis := throughputAxis()
	g := sweepGrid(gridShape{rows: len(AllProtocols), cols: len(axis)}, seed, opts,
		func(row, col, _ int) Scenario {
			return throughputScenario(AllProtocols[row], f, axis[col].load, axis[col].batch, 0)
		})
	rep := &ThroughputReport{Workers: g.Workers, Elapsed: g.Elapsed}
	for i := range g.Cells {
		rep.Cells = append(rep.Cells, measureThroughput(g.Cells[i].Result))
	}
	return rep
}

// loadBatch is one column of the throughput table.
type loadBatch struct {
	load  int64
	batch int
}

// throughputAxis is the throughput table's column axis: ThroughputLoads ×
// ThroughputBatches, loads outer.
func throughputAxis() []loadBatch {
	var out []loadBatch
	for _, load := range ThroughputLoads {
		for _, batch := range ThroughputBatches {
			out = append(out, loadBatch{load, batch})
		}
	}
	return out
}

// Table renders the report: one row per protocol, one column per load ×
// batch, each cell "cmd/s p50/p99". The rendering is a pure function of
// the simulated executions, so it is byte-identical at every worker
// count.
func (r *ThroughputReport) Table() *Table {
	cols := axisLabels(throughputAxis(), func(c loadBatch) string { return fmt.Sprintf("%d/s b=%d", c.load, c.batch) })
	t := gridTable("SMR throughput: committed commands/sec and commit latency (p50/p99) by offered load and batch size",
		"protocol", AllProtocols, cols, func(row, col int) string {
			c := cellAt(r.Cells, len(cols), row, col)
			return orStalled(c.Committed > 0, "%.0f/s %s/%s", c.PerSec, shortDur(c.P50), shortDur(c.P99))
		})
	t.AddNote("open loop: %d logical clients, %dB payload/cmd, Δ=50ms δ=5ms, stats after %s warmup", ThroughputClients, ThroughputPayloadPad, throughputWarmup)
	t.AddNote("latency is submit→first commit at any honest replica; words/cmd in ThroughputCell.WordsPerCmd")
	return t
}

// shortDur renders a latency compactly (ms resolution above 10ms).
func shortDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d >= 10*time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
}

// ---------------------------------------------------------------------------
// Throughput under attack
// ---------------------------------------------------------------------------

// AttackLoad and AttackBatch fix the workload of the under-attack
// comparison (middle of the clean table's axes).
const (
	AttackLoad  int64 = 1500
	AttackBatch       = 128
)

// throughputAttackScenario is throughputScenario with GST = 2s and the
// given attack strategy poisoning the pre-GST window (attackScenario's
// shape); an empty name runs the unattacked control.
func throughputAttackScenario(p Protocol, f int, attack string, seed int64) Scenario {
	s := throughputScenario(p, f, AttackLoad, AttackBatch, seed)
	gst := 2 * time.Second
	s.GST = gst
	s.Duration = gst + 15*time.Second
	if attack != "" {
		s.Name = fmt.Sprintf("smr-tput-attack-%s-%s-f%d", attack, p, f)
		s.Attack = adversary.AttackSpec{Name: attack}
	}
	return s
}

// ThroughputAttackCell compares one protocol's commit latency clean
// versus under attack at the same offered load.
type ThroughputAttackCell struct {
	Protocol Protocol
	Attack   string
	Seed     int64
	Clean    ThroughputCell
	Attacked ThroughputCell
}

// ThroughputUnderAttackReport aggregates the under-attack sweep.
type ThroughputUnderAttackReport struct {
	Cells   []ThroughputAttackCell
	Workers int
	Elapsed time.Duration
}

// ThroughputUnderAttackSweep runs every protocol twice — clean and under
// the given attack strategy (default view-desync) — at AttackLoad /
// AttackBatch, on the sweep engine.
func ThroughputUnderAttackSweep(f int, attack string, seed int64, opts SweepOptions) *ThroughputUnderAttackReport {
	if attack == "" {
		attack = adversary.AttackViewDesync
	}
	sides := []string{"", attack} // the unattacked control, then the attack
	g := sweepGrid(gridShape{rows: len(AllProtocols), cols: len(sides)}, seed, opts,
		func(row, col, _ int) Scenario { return throughputAttackScenario(AllProtocols[row], f, sides[col], 0) })
	rep := &ThroughputUnderAttackReport{Workers: g.Workers, Elapsed: g.Elapsed}
	for row, p := range AllProtocols {
		clean := measureThroughput(g.result(row, 0))
		attacked := measureThroughput(g.result(row, 1))
		rep.Cells = append(rep.Cells, ThroughputAttackCell{
			Protocol: p,
			Attack:   attack,
			Seed:     attacked.Seed,
			Clean:    clean,
			Attacked: attacked,
		})
	}
	return rep
}

// Table renders the under-attack comparison: per protocol, clean and
// attacked throughput and p99 commit latency, plus the p99 blowup
// factor.
func (r *ThroughputUnderAttackReport) Table() *Table {
	attack := adversary.AttackViewDesync
	if len(r.Cells) > 0 {
		attack = r.Cells[0].Attack
	}
	t := &Table{Title: fmt.Sprintf("SMR throughput under attack (%s, %d cmd/s, batch %d): clean vs attacked commit latency", attack, AttackLoad, AttackBatch)}
	t.Header = []string{"protocol", "clean cmd/s", "clean p99", "attacked cmd/s", "attacked p99", "p99 blowup"}
	side := func(tc *ThroughputCell) (rate, p99 string) {
		// A side that committed nothing over the whole run is stalled:
		// the attack (or the protocol itself) denied service outright.
		if tc.Committed == 0 {
			return "stalled", "-"
		}
		return fmt.Sprintf("%.0f/s", tc.PerSec), shortDur(tc.P99)
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		cleanRate, cleanP99 := side(&c.Clean)
		attackedRate, attackedP99 := side(&c.Attacked)
		blowup := "-"
		if c.Clean.Committed > 0 && c.Attacked.Committed > 0 && c.Clean.P99 > 0 {
			blowup = fmt.Sprintf("%.2fx", float64(c.Attacked.P99)/float64(c.Clean.P99))
		}
		t.AddRow(string(c.Protocol), cleanRate, cleanP99, attackedRate, attackedP99, blowup)
	}
	t.AddNote("GST=2s; the attack poisons the pre-GST window, stats start at GST+%s", throughputWarmup)
	return t
}
