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
// must be invisible in results. These tests prove it three ways — table
// byte-identity with arenas on vs off, per-cell result equivalence
// between a dirty arena and fresh runs under adversarial/honest
// interleaving, and a pinned allocation budget for warm-arena cells.

// TestArenaReuseDeterminism renders the Table 1 eventual, chaos and
// attack tables with per-worker arenas enabled (the default) and with
// FreshCells, at two worker counts each, and requires all four renderings
// byte-identical per table.
func TestArenaReuseDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-table sweep in -short mode")
	}
	t.Parallel()
	const seed = 42
	workers := []int{1, 3}
	render := map[string]func(opts SweepOptions) string{
		"table1-eventual": func(opts SweepOptions) string {
			comm, lat := Table1Eventual(1, []int{0, 1}, seed, opts)
			return comm.Render() + lat.Render()
		},
		"chaos": func(opts SweepOptions) string {
			return ChaosTable(1, seed, opts).Render()
		},
		"attack": func(opts SweepOptions) string {
			return AttackSweep(1, seed, opts).Table().Render()
		},
	}
	for name, fn := range render {
		var want string
		for _, fresh := range []bool{true, false} {
			for _, w := range workers {
				got := fn(SweepOptions{Workers: w, FreshCells: fresh})
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s: output differs (fresh=%v workers=%d):\n--- want ---\n%s\n--- got ---\n%s",
						name, fresh, w, want, got)
				}
			}
		}
	}
}

// resultFingerprint summarizes the observable surface of one run: the
// fields every measure function reads.
type resultFingerprint struct {
	decisions  int
	honest     int64
	byz        int64
	words      int64
	kappa      int64
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
		kappa:      res.Collector.KappaBytes(),
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

// TestArenaNoStateLeak interleaves adversarial (equivocator, adaptive
// strategy, churn, omission-budget) and honest cells of varying sizes
// through ONE arena, in an order chosen so every cell inherits a
// maximally dirty stack from a differently-shaped predecessor, and
// cross-checks each cell against a fresh standalone run.
func TestArenaNoStateLeak(t *testing.T) {
	t.Parallel()
	delta := 50 * time.Millisecond
	gst := 2 * time.Second
	dur := 8 * time.Second
	cells := []Scenario{
		// Adaptive attack: strategy nodes, silences, signed sync spam.
		{Name: "attack", Protocol: ProtoLumiere, F: 1, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, Attack: adversary.AttackSpec{Name: adversary.AttackSaturate}},
		// Honest small cell: must see no trace of the attack cell.
		{Name: "honest-small", Protocol: ProtoLumiere, F: 1, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, CheckInvariants: true},
		// SMR equivocator at a larger n: exercises the HotStuff stack
		// and Byzantine accounting on recycled slots.
		{Name: "equivocate", Protocol: ProtoLumiere, F: 2, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, SMR: true, WorkloadRate: 50,
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

// TestSMRCellAllocs pins what a committed command costs on the SMR path:
// the benchmark's sim-smr-n4 cell (Lumiere + chained HotStuff, n=4, 6000
// cmd/s in blocks of up to 256, KV) cut to two simulated seconds, in a
// warm arena. Each of the four replicas allocates the command's key and
// value when it applies it; blocks, proposals and map growth amortize to
// about half an object more (8.5 measured). Hashing a block per use,
// copying payloads out of proposals or splitting commands into strings
// again costs 27.8.
func TestSMRCellAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement in -short mode")
	}
	s := Scenario{
		Protocol: ProtoLumiere, N: 4, F: 1,
		Delta: 50 * time.Millisecond, DeltaActual: 5 * time.Millisecond,
		Duration: 2 * time.Second, Seed: 42,
		SMR: true, SMRBatchSize: 256,
		Workload: &workload.Config{Rate: 6000, Clients: 1_000_000, PayloadPad: 64},
	}
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
	const budget = 10
	if perCommit > budget {
		t.Fatalf("warm SMR cell: %.1f allocs per committed command (%d commits), budget %d", perCommit, commits, budget)
	}
	t.Logf("warm SMR cell: %.1f allocs per committed command (%d commits, budget %d)", perCommit, commits, budget)
}
