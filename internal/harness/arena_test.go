package harness

import (
	"runtime"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/network"
	"lumiere/internal/workload"
)

// The arena contract: recycling a worker's execution stack across cells
// must be invisible in results. These tests prove it two ways — per-cell
// result equivalence between a dirty arena and fresh runs under
// adversarial/honest interleaving, and a pinned allocation budget for
// warm-arena cells. TestTablesGolden checks every table rendered on
// reused arenas at two worker counts.

// resultFingerprint summarizes the observable surface of one run: the
// fields every measure function reads.
type resultFingerprint struct {
	decisions  int
	honest     int64
	byz        int64
	words      int64
	events     uint64
	omitted    int64
	violations int
	finalViews string
	firstDec   time.Duration
}

func fingerprint(res *Result) resultFingerprint {
	fp := resultFingerprint{
		decisions:  res.DecisionCount(),
		honest:     res.Collector.HonestSends(),
		byz:        res.Collector.ByzantineSends(),
		words:      res.Collector.WordsTotal(),
		events:     res.Events,
		omitted:    res.Omitted,
		violations: len(res.Violations),
	}
	for _, v := range res.FinalViews {
		fp.finalViews += v.String() + ","
	}
	if d, ok := res.Collector.FirstDecisionAfter(res.GST); ok {
		fp.firstDec = d.At.Sub(res.GST)
	}
	return fp
}

// leakCells are adversarial (equivocator, adaptive strategy, churn,
// omission-budget) and honest cells of varying sizes, in an order chosen
// so every cell inherits a maximally dirty stack from a
// differently-shaped predecessor.
func leakCells() []Scenario {
	delta := 50 * time.Millisecond
	gst := 2 * time.Second
	dur := 8 * time.Second
	return []Scenario{
		// Adaptive attack: strategy nodes, silences, signed sync spam.
		{Name: "attack", Protocol: ProtoLumiere, F: 1, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, Attack: adversary.AttackSpec{Name: adversary.AttackSaturate}},
		// Honest small cell: must see no trace of the attack cell.
		{Name: "honest-small", Protocol: ProtoLumiere, F: 1, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, CheckInvariants: true},
		// SMR equivocator at a larger n: exercises the HotStuff stack
		// and Byzantine accounting on recycled slots.
		{Name: "equivocate", Protocol: ProtoLumiere, F: 2, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, SMR: true, Workload: &workload.Config{Rate: 50},
			Corruptions: []adversary.Corruption{{Node: 0, Behavior: adversary.BehaviorEquivocating}}},
		// Churn + loss + omission budget on another protocol.
		{Name: "churn", Protocol: ProtoFever, F: 2, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, Loss: 0.2, LossUntil: gst,
			OmissionBudget: network.OmissionBudget{MaxMessages: 10, MaxSenders: 1},
			Corruptions: []adversary.Corruption{adversary.Churn(1,
				adversary.Downtime{From: 500 * time.Millisecond, To: time.Second})}},
		// Honest again, smaller n than the predecessor: shrinking slots.
		{Name: "honest-again", Protocol: ProtoCogsworth, F: 1, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur},
	}
}

// TestArenaNoStateLeak runs leakCells twice through ONE arena and
// cross-checks each cell against a fresh standalone run.
func TestArenaNoStateLeak(t *testing.T) {
	t.Parallel()
	cells := leakCells()
	arena := NewArena()
	for round := 0; round < 2; round++ {
		for i, s := range cells {
			s.Seed = DeriveSeed(7, round*len(cells)+i)
			warm := fingerprint(RunIn(arena, s))
			fresh := fingerprint(Run(s))
			if warm != fresh {
				t.Fatalf("round %d cell %q: warm arena diverged from fresh run:\nwarm:  %+v\nfresh: %+v",
					round, s.Name, warm, fresh)
			}
		}
	}
}

// TestRunInAllocsSteadyCell pins the per-cell allocation budget of a warm
// arena: after a warmup run, re-running a chaos-table cell in the same
// arena must stay below a fixed allocation count. The budget has
// generous headroom over the measured value (see EXPERIMENTS.md perf
// notes) but would catch a regression that reintroduces per-cell setup
// churn or per-send allocation.
func TestRunInAllocsSteadyCell(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement in -short mode")
	}
	s := chaosScenario(ProtoCogsworth, 1, 0, 42)
	arena := NewArena()
	RunIn(arena, s) // warm every layer's high-water buffers
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunIn(arena, s)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	// Measured ~16k warm-cell allocs (message structs, engine maps,
	// snapshot); the pre-arena stack paid ~195k. Budget: 3x headroom.
	const budget = 50_000
	if allocs > budget {
		t.Fatalf("warm arena cell performed %d allocs, budget %d", allocs, budget)
	}
	t.Logf("warm arena cell: %d allocs (budget %d)", allocs, budget)
}

// TestLumiereCellSetupBytes pins what assembling a Lumiere cell costs at
// n = 256: a warm-arena LargeNScenario cell cut to 1 ms, which is almost
// all setup. The replicas share one §4 leader schedule (0.62 MB
// measured); a schedule per replica, each with its own rng and
// permutation blocks, costs 2.01 MB, over the 1 MB budget.
func TestLumiereCellSetupBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement in -short mode")
	}
	s := LargeNScenario(ProtoLumiere, 256, 42)
	s.Duration = time.Millisecond
	arena := NewArena()
	RunIn(arena, s)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunIn(arena, s)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	const budget = 1 << 20
	if bytes > budget {
		t.Fatalf("warm arena n=256 Lumiere cell allocated %d bytes, budget %d", bytes, budget)
	}
	t.Logf("warm arena n=256 Lumiere cell: %d bytes (budget %d)", bytes, budget)
}

// smrCell is the benchmark's sim-smr-n4 cell cut to two simulated
// seconds.
func smrCell() Scenario {
	return Scenario{
		Name:     "smr-n4",
		Protocol: ProtoLumiere, N: 4, F: 1,
		Delta: 50 * time.Millisecond, DeltaActual: 5 * time.Millisecond,
		Duration: 2 * time.Second, Seed: 42,
		SMR: true, SMRBatchSize: 256,
		Workload: &workload.Config{Rate: 6000, Clients: 1_000_000, PayloadPad: 64},
	}
}

// TestSMRCellAllocs pins what a committed command costs on the SMR path:
// the benchmark's sim-smr-n4 cell (Lumiere + chained HotStuff, n=4, 6000
// cmd/s in blocks of up to 256, KV) cut to two simulated seconds, in a
// warm arena. Applying a SET allocates nothing (the KV copies it into
// its byte blocks); blocks, proposals and the stores' growth amortize to
// about a third of an object (0.34 measured). One string per replica per
// SET, as the KV's former map took, costs 4.5; hashing a block per use,
// copying payloads out of proposals or splitting commands into strings
// again costs 27.8.
func TestSMRCellAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement in -short mode")
	}
	s := smrCell()
	arena := NewArena()
	RunIn(arena, s)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := RunIn(arena, s)
	runtime.ReadMemStats(&after)
	commits := res.Collector.CommitCount()
	if commits < 10_000 {
		t.Fatalf("only %d commands committed", commits)
	}
	perCommit := float64(after.Mallocs-before.Mallocs) / float64(commits)
	const budget = 1
	if perCommit > budget {
		t.Fatalf("warm SMR cell: %.2f allocs per committed command (%d commits), budget %d", perCommit, commits, budget)
	}
	t.Logf("warm SMR cell: %.2f allocs per committed command (%d commits, budget %d)", perCommit, commits, budget)
}
