package eval

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/statemachine"
	"lumiere/internal/viz"
	"lumiere/internal/workload"
)

// This file implements the SMR throughput experiments: open-loop client
// populations (internal/workload) driving chained HotStuff over each
// view-synchronization protocol, measured in committed commands per
// second and submit→commit latency percentiles. throughputTable sweeps
// protocols × offered load × batch size in steady state;
// throughputUnderAttackTable pits a fixed load against the view-desync
// strategy and reports what the attack does to p99 commit latency.

// throughputLoads is the offered-load axis (commands per second) of the
// throughput table. The loads are deliberately non-divisors of 10⁹:
// the accumulator pacer injects them exactly (workload.Pacer).
var throughputLoads = []int64{300, 1500, 6000}

// throughputBatches is the block-batch-size axis of the throughput
// table.
var throughputBatches = []int{64, 256}

// throughputClients is the logical client population behind the
// throughput tables. Clients are materialized only as hashes of command
// indices, so the population costs no per-client state.
const throughputClients = 1_000_000

// throughputWarmup is the prefix of each run excluded from commit
// statistics (ramp-up views and cold mempools).
const throughputWarmup = 3 * time.Second

// throughputScenario builds one cell: an SMR run at Δ = 50ms, δ = Δ/10,
// with an open-loop population offering `load` commands per second into
// every honest replica and blocks capped at `batch` commands. The
// Counter state machine keeps execution O(1) per command at any load.
func throughputScenario(p harness.Protocol, f int, load int64, batch int, seed int64) harness.Scenario {
	delta := 50 * time.Millisecond
	return harness.Scenario{
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
			Clients:    throughputClients,
			Rate:       load,
			PayloadPad: harness.ThroughputPayloadPad,
		},
	}
}

// ThroughputCell is one protocol × load × batch cell.
type ThroughputCell struct {
	// Protocol, Load and Batch identify the cell.
	Protocol harness.Protocol
	Load     int64
	Batch    int
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

// measureThroughput extracts one cell from a finished SMR run.
func measureThroughput(res *harness.Result) ThroughputCell {
	s := res.Scenario
	cell := ThroughputCell{
		Protocol:  s.Protocol,
		Load:      s.Workload.Rate,
		Batch:     s.SMRBatchSize,
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

// loadBatch is one column of the throughput table.
type loadBatch struct {
	load  int64
	batch int
}

// throughputTable runs the AllProtocols × throughputLoads ×
// throughputBatches grid at f = sc.SMRF and renders one row per
// protocol, one column per load × batch, each cell "cmd/s p50/p99".
func throughputTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	var axis []loadBatch
	for _, load := range throughputLoads {
		for _, batch := range throughputBatches {
			axis = append(axis, loadBatch{load, batch})
		}
	}
	g := harness.SweepGrid(harness.GridShape{Rows: len(harness.AllProtocols), Cols: len(axis)}, seed, opts,
		func(row, col, _ int) harness.Scenario {
			return throughputScenario(harness.AllProtocols[row], sc.SMRF, axis[col].load, axis[col].batch, 0)
		})
	cols := viz.AxisLabels(axis, func(c loadBatch) string { return fmt.Sprintf("%d/s b=%d", c.load, c.batch) })
	t := viz.GridTable("SMR throughput: committed commands/sec and commit latency (p50/p99) by offered load and batch size",
		"protocol", harness.AllProtocols, cols, func(row, col int) string {
			c := measureThroughput(g.Result(row, col))
			return viz.OrStalled(c.Committed > 0, "%.0f/s %s/%s", c.PerSec, viz.ShortDur(c.P50), viz.ShortDur(c.P99))
		})
	t.AddNote("open loop: %d logical clients, %dB payload/cmd, Δ=50ms δ=5ms, stats after %s warmup", throughputClients, harness.ThroughputPayloadPad, throughputWarmup)
	t.AddNote("latency is submit→first commit at any honest replica; words/cmd in ThroughputCell.WordsPerCmd")
	return one("smr_throughput", t), ""
}

// ---------------------------------------------------------------------------
// Throughput under attack
// ---------------------------------------------------------------------------

// attackLoad and attackBatch fix the workload of the under-attack
// comparison (middle of the clean table's axes).
const (
	attackLoad  int64 = 1500
	attackBatch       = 128
)

// throughputAttackScenario is throughputScenario with GST = 2s and the
// given attack strategy poisoning the pre-GST window (attackScenario's
// shape); an empty name runs the unattacked control.
func throughputAttackScenario(p harness.Protocol, f int, attack string, seed int64) harness.Scenario {
	s := throughputScenario(p, f, attackLoad, attackBatch, seed)
	gst := 2 * time.Second
	s.GST = gst
	s.Duration = gst + 15*time.Second
	if attack != "" {
		s.Name = fmt.Sprintf("smr-tput-attack-%s-%s-f%d", attack, p, f)
		s.Attack = adversary.AttackSpec{Name: attack}
	}
	return s
}

// throughputUnderAttackTable runs every protocol twice at f = sc.SMRF —
// clean and under the view-desync strategy — at attackLoad /
// attackBatch, and renders per protocol clean and attacked throughput
// and p99 commit latency, plus the p99 blowup factor.
func throughputUnderAttackTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	attack := adversary.AttackViewDesync
	sides := []string{"", attack} // the unattacked control, then the attack
	g := harness.SweepGrid(harness.GridShape{Rows: len(harness.AllProtocols), Cols: len(sides)}, seed, opts,
		func(row, col, _ int) harness.Scenario {
			return throughputAttackScenario(harness.AllProtocols[row], sc.SMRF, sides[col], 0)
		})
	t := &viz.Table{Title: fmt.Sprintf("SMR throughput under attack (%s, %d cmd/s, batch %d): clean vs attacked commit latency", attack, attackLoad, attackBatch)}
	t.Header = []string{"protocol", "clean cmd/s", "clean p99", "attacked cmd/s", "attacked p99", "p99 blowup"}
	side := func(tc *ThroughputCell) (rate, p99 string) {
		// A side that committed nothing over the whole run is stalled:
		// the attack (or the protocol itself) denied service outright.
		if tc.Committed == 0 {
			return "stalled", "-"
		}
		return fmt.Sprintf("%.0f/s", tc.PerSec), viz.ShortDur(tc.P99)
	}
	for row, p := range harness.AllProtocols {
		clean, attacked := measureThroughput(g.Result(row, 0)), measureThroughput(g.Result(row, 1))
		cleanRate, cleanP99 := side(&clean)
		attackedRate, attackedP99 := side(&attacked)
		blowup := "-"
		if clean.Committed > 0 && attacked.Committed > 0 && clean.P99 > 0 {
			blowup = fmt.Sprintf("%.2fx", float64(attacked.P99)/float64(clean.P99))
		}
		t.AddRow(string(p), cleanRate, cleanP99, attackedRate, attackedP99, blowup)
	}
	t.AddNote("GST=2s; the attack poisons the pre-GST window, stats start at GST+%s", throughputWarmup)
	return one("smr_throughput_attack", t), ""
}
