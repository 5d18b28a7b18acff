package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/hotstuff"
	"lumiere/internal/statemachine"
	"lumiere/internal/workload"
)

// TestThroughputScenarioShape pins the wiring of a throughput cell
// without running it: SMR mode, batch size, open-loop workload config
// and the non-divisor load axis. Runs in -short mode (CI smoke).
func TestThroughputScenarioShape(t *testing.T) {
	t.Parallel()
	s := throughputScenario(ProtoLumiere, 1, 1500, 256, 7)
	if !s.SMR || s.SMRBatchSize != 256 || s.Workload == nil {
		t.Fatalf("scenario not an SMR workload cell: %+v", s)
	}
	if s.Workload.Rate != 1500 || s.Workload.Closed || s.Workload.Clients != ThroughputClients {
		t.Fatalf("workload config wrong: %+v", *s.Workload)
	}
	if s.Workload.PayloadPad != ThroughputPayloadPad {
		t.Fatalf("payload pad = %d", s.Workload.PayloadPad)
	}
	for _, load := range ThroughputLoads {
		if int64(time.Second)%load == 0 {
			t.Fatalf("load %d divides 1s: axis must exercise the accumulator pacer", load)
		}
	}
}

// TestThroughputSanityCell runs one mid-table cell end to end and checks
// the measured numbers are physical: committed tracks submitted, PerSec
// reproduces the offered load, and latency is a few Δ.
func TestThroughputSanityCell(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	res := Run(throughputScenario(ProtoLumiere, 1, 1500, 256, 11))
	cell := measureThroughput(res)
	if cell.Submitted == 0 || cell.Committed == 0 {
		t.Fatalf("empty cell: %+v", cell)
	}
	// Open loop at 1500/s for 15s: exactly 22500 submitted (pacer is
	// exact), nearly all committed (only the in-flight tail is not).
	if cell.Submitted != 22500 {
		t.Fatalf("submitted = %d, want exactly 22500 (accumulator pacer)", cell.Submitted)
	}
	if cell.Committed < cell.Submitted*95/100 {
		t.Fatalf("committed %d of %d submitted", cell.Committed, cell.Submitted)
	}
	// Steady-state throughput must reproduce the offered load within 5%.
	if cell.PerSec < 1425 || cell.PerSec > 1575 {
		t.Fatalf("PerSec = %.1f, want ~1500", cell.PerSec)
	}
	if cell.P50 <= 0 || cell.P99 < cell.P50 || cell.P99 > time.Second {
		t.Fatalf("latency not physical: p50=%v p99=%v", cell.P50, cell.P99)
	}
	if cell.WordsPerCmd <= 0 {
		t.Fatalf("words/cmd = %v", cell.WordsPerCmd)
	}
}

// TestThroughputTableWorkerIndependence renders the throughput table at
// workers=1 and workers=4 and requires the renderings byte-identical:
// commit-latency recording, the workload engine's arena reuse and the
// word accounting must all be deterministic per cell seed. The rendering
// is also this table's entry in testdata/tables.golden (TestTablesGolden
// skips it: 6 s a render on 2 cores since PR 23, 50 s before).
func TestThroughputTableWorkerIndependence(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	const seed = goldenSeed
	var want string
	for _, w := range []int{1, 4} {
		got := ThroughputSweep(1, seed, SweepOptions{Workers: w}).Table().Render()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("throughput table differs between workers=1 and workers=%d:\n--- want ---\n%s\n--- got ---\n%s", w, want, got)
		}
	}
	if !strings.Contains(want, "lumiere") || !strings.Contains(want, "6000/s b=256") {
		t.Fatalf("table missing expected axes:\n%s", want)
	}
	checkGolden(t, "ThroughputTable", want)
}

// TestThroughputAttackTableWorkerIndependence is the same byte-identity
// contract for the under-attack comparison (clean + attacked cells share
// the sweep engine).
func TestThroughputAttackTableWorkerIndependence(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	const seed = 42
	var want string
	for _, w := range []int{1, 3} {
		got := ThroughputUnderAttackSweep(1, adversary.AttackViewDesync, seed, SweepOptions{Workers: w}).Table().Render()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("attack table differs between workers=1 and workers=%d:\n--- want ---\n%s\n--- got ---\n%s", w, want, got)
		}
	}
	if !strings.Contains(want, "p99 blowup") {
		t.Fatalf("attack table missing blowup column:\n%s", want)
	}
}

// TestInjectorExactRate is the regression test for the truncated-interval
// injector bug: at 666667 cmd/s the legacy time.Second/rate interval
// (1499ns) injects ~66711 commands per 100ms — +0.067% forever. The
// accumulator pacer must inject exactly DueBy(rate, horizon) = 66666.
func TestInjectorExactRate(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	const rate = 666667
	horizon := 100 * time.Millisecond
	res := Run(Scenario{
		Protocol:     ProtoLumiere,
		F:            1,
		Delta:        testDelta,
		DeltaActual:  testDelta / 10,
		Duration:     horizon,
		Seed:         3,
		SMR:          true,
		WorkloadRate: rate,
	})
	want := int(workload.DueBy(rate, int64(horizon)) - workload.DueBy(rate, 0))
	if want != 66666 {
		t.Fatalf("DueBy model says %d, want 66666", want)
	}
	if res.Injected != want {
		t.Fatalf("injected %d commands in %v at %d/s, want exactly %d (legacy interval gave ~66711)",
			res.Injected, horizon, rate, want)
	}
}

// countingKV wraps the KV state machine and counts GET misses, so a test
// can assert read-your-writes through the commit pipeline.
type countingKV struct {
	*statemachine.KV
	notFound int
}

func (c *countingKV) Apply(cmd []byte) ([]byte, error) {
	out, err := c.KV.Apply(cmd)
	if errors.Is(err, statemachine.ErrKeyNotFound) {
		c.notFound++
	}
	return out, err
}

// TestClosedLoopReadYourWrites runs a closed-loop population that
// alternates SET and GET per client. Because a closed-loop client only
// submits its GET after its SET committed, and commits execute in log
// order, no replica may ever observe a GET miss — which also proves the
// KV distinguishes "missing" from "present but empty" (satellite fix).
func TestClosedLoopReadYourWrites(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	const clients = 50
	res := Run(Scenario{
		Protocol:        ProtoLumiere,
		F:               1,
		Delta:           testDelta,
		DeltaActual:     testDelta / 10,
		Duration:        10 * time.Second,
		Seed:            9,
		SMR:             true,
		SMRBatchSize:    64,
		NewStateMachine: func() statemachine.StateMachine { return &countingKV{KV: statemachine.NewKV()} },
		Workload: &workload.Config{
			Clients: clients,
			Rate:    1000,
			Closed:  true,
			Reads:   true,
		},
	})
	committed := requireConsistentCommits(t, res)
	if committed < 10 {
		t.Fatalf("committed only %d blocks", committed)
	}
	if res.Collector.CommitCount() < clients*4 {
		t.Fatalf("only %d commands committed: closed loop did not cycle", res.Collector.CommitCount())
	}
	for i, sm := range res.SMs {
		ckv, ok := sm.(*countingKV)
		if !ok || ckv == nil {
			continue
		}
		if ckv.notFound != 0 {
			t.Fatalf("replica %d: %d GET misses — read-your-writes violated", i, ckv.notFound)
		}
		if ckv.Len() == 0 {
			t.Fatalf("replica %d applied no SETs", i)
		}
	}
}

// TestWorkloadAllocs pins the warm injection path: generating a command
// and enqueuing it into a live replica's mempool. Budget ≤ 0.5
// allocations per command, covering the amortized contributors — the
// generator's 64KiB bump blocks, commit-record slice doubling, and
// mempool/dedup-map growth. A regression here (e.g. per-command payload
// or string allocation) jumps to ≥ 2/cmd.
func TestWorkloadAllocs(t *testing.T) {
	skipInShort(t)
	res := Run(throughputScenario(ProtoLumiere, 1, 300, 64, 1))
	var core *hotstuff.Core
	for _, e := range res.Engines {
		if hs, ok := e.(*hotstuff.Core); ok && hs != nil {
			core = hs
			break
		}
	}
	if core == nil {
		t.Fatal("no hotstuff engine")
	}
	eng := workload.NewEngine(workload.Config{
		Clients:    ThroughputClients,
		Rate:       1_000_000,
		PayloadPad: ThroughputPayloadPad,
	})
	// idShift keeps test command IDs disjoint from the run's, so enqueue
	// exercises the full insert path rather than the dedup early-out.
	const idShift = uint64(1) << 50
	warm := func(n int) {
		for i := 0; i < n; i++ {
			id, payload := eng.SubmitNext(0)
			core.EnqueueCommand(id+idShift, payload)
		}
	}
	warm(4096)
	const batch = 1000
	perBatch := testing.AllocsPerRun(10, func() { warm(batch) })
	if perCmd := perBatch / batch; perCmd > 0.5 {
		t.Fatalf("warm injection path allocates %.3f/cmd (%.0f per %d-command batch), budget 0.5",
			perCmd, perBatch, batch)
	}
}
