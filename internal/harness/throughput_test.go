package harness

import (
	"testing"
	"time"

	"lumiere/internal/allocgate"
	"lumiere/internal/hotstuff"
	"lumiere/internal/workload"
)

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
		Protocol:    ProtoLumiere,
		F:           1,
		Delta:       testDelta,
		DeltaActual: testDelta / 10,
		Duration:    horizon,
		Seed:        3,
		SMR:         true,
		Workload:    &workload.Config{Rate: rate},
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

// TestWorkloadAllocs pins the warm injection path: generating a command
// and enqueuing it into a live replica's mempool. Budget ≤ 0.5
// allocations per command, covering the amortized contributors — the
// generator's 64KiB bump blocks, commit-record slice doubling, and
// mempool/dedup-map growth. A regression here (e.g. per-command payload
// or string allocation) jumps to ≥ 2/cmd.
func TestWorkloadAllocs(t *testing.T) {
	skipInShort(t)
	s := smrCell()
	s.SMRBatchSize, s.Workload.Rate = 64, 300
	_, shells := run(s)
	var core *hotstuff.Core
	for _, r := range shells {
		if hs, ok := r.Core.(*hotstuff.Core); ok && hs != nil {
			core = hs
			break
		}
	}
	if core == nil {
		t.Fatal("no hotstuff engine")
	}
	eng := workload.NewEngine(workload.Config{
		Clients:    s.Workload.Clients,
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
	perBatch := allocgate.PerRun(t, 10, func() { warm(batch) })
	if perCmd := perBatch / batch; perCmd > 0.5 {
		t.Fatalf("warm injection path allocates %.3f/cmd (%.0f per %d-command batch), budget 0.5",
			perCmd, perBatch, batch)
	}
}
