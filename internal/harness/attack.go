package harness

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/core"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/types"
)

// This file implements the adaptive-attack arm of the harness: the glue
// between Scenario.Attack and the adversary.Strategy subsystem (node
// selection, protocol-legal spam construction, epoch accounting), and
// the attack table experiment — every protocol run under every attack
// strategy, reporting post-GST view-synchronization latency and honest
// communication in words. See DESIGN.md §1c for the attack model and
// EXPERIMENTS.md ("Attack corpus") for the reference table.

// withStrategicNodes returns corr extended with BehaviorStrategic
// corruptions for the k highest-numbered processors not already
// corrupted (k = 0 means f). The result is a fresh slice — scenarios
// are shared across sweep workers, so the caller's backing array is
// never mutated. Strategic processors count against f: the combined
// corruption set must not exceed it.
func withStrategicNodes(corr []adversary.Corruption, cfg types.Config, k int) []adversary.Corruption {
	if k <= 0 {
		k = cfg.F
	}
	taken := make(map[types.NodeID]bool, len(corr))
	for _, c := range corr {
		if c.Behavior != adversary.BehaviorHonest {
			taken[c.Node] = true
		}
	}
	out := make([]adversary.Corruption, len(corr), len(corr)+k)
	copy(out, corr)
	added := 0
	for id := cfg.N - 1; id >= 0 && added < k; id-- {
		n := types.NodeID(id)
		if taken[n] {
			continue
		}
		out = append(out, adversary.Corruption{Node: n, Behavior: adversary.BehaviorStrategic})
		added++
	}
	if corrupted := len(taken) + added; corrupted > cfg.F {
		panic(fmt.Sprintf("harness: attack corrupts %d processors, model allows f=%d", corrupted, cfg.F))
	}
	return out
}

// strategicNodes returns the processors under strategy control.
func strategicNodes(corr []adversary.Corruption) []types.NodeID {
	var out []types.NodeID
	for _, c := range corr {
		if c.Behavior == adversary.BehaviorStrategic {
			out = append(out, c.Node)
		}
	}
	return out
}

// accountingEpochLen returns the views-per-epoch grouping used for the
// Collector's per-epoch word series: the protocol's own epoch length
// where it has one — f+1, the classic epoch, for LP22 and RareSync
// (baseline.EpochLen) — and the same f+1 as the nominal grouping for the
// epoch-less protocols.
func accountingEpochLen(s Scenario, cfg types.Config) types.View {
	switch s.Protocol {
	case ProtoLumiere:
		return core.Config{Base: cfg, Variant: core.VariantFull}.EpochLen()
	case ProtoBasic:
		return core.Config{Base: cfg, Variant: core.VariantBasic}.EpochLen()
	default:
		return types.View(cfg.F + 1)
	}
}

// syncSpamBuilder returns the protocol-legal view-synchronization spam
// constructor for adversary.Env.SyncMsg: given a corrupted sender and a
// frontier view, it builds the correctly signed message that protocol's
// honest processors verify and buffer — an epoch-view message for the
// next epoch boundary (Lumiere, Basic, LP22, RareSync), a view message
// for the next initial view (Fever), a wish (Cogsworth), or a timeout
// (NK20).
func syncSpamBuilder(s Scenario, cfg types.Config, suite crypto.Suite) func(types.NodeID, types.View) msg.Message {
	switch s.Protocol {
	case ProtoLumiere, ProtoBasic, ProtoLP22, ProtoRareSync:
		// accountingEpochLen returns the protocol's own epoch length
		// for all four epoch-based protocols.
		return epochViewSpam(suite, accountingEpochLen(s, cfg))
	case ProtoFever:
		return func(from types.NodeID, v types.View) msg.Message {
			w := v
			if w < 0 {
				w = 0
			}
			if !w.Initial() {
				w++
			}
			return &msg.ViewMsg{V: w, Sig: suite.SignerFor(from).Sign(msg.ViewStatement(w))}
		}
	case ProtoCogsworth:
		return func(from types.NodeID, v types.View) msg.Message {
			if v < 1 {
				v = 1
			}
			return &msg.Wish{V: v, Sig: suite.SignerFor(from).Sign(msg.WishStatement(v))}
		}
	case ProtoNK20:
		return func(from types.NodeID, v types.View) msg.Message {
			if v < 1 {
				v = 1
			}
			return &msg.Timeout{V: v, Sig: suite.SignerFor(from).Sign(msg.TimeoutStatement(v))}
		}
	default:
		return func(types.NodeID, types.View) msg.Message { return nil }
	}
}

// epochViewSpam builds epoch-view spam for epoch-based protocols: the
// message targets the next epoch boundary at or above the frontier, the
// only views those protocols' handlers accept.
func epochViewSpam(suite crypto.Suite, epochLen types.View) func(types.NodeID, types.View) msg.Message {
	return func(from types.NodeID, v types.View) msg.Message {
		if epochLen <= 0 {
			return nil
		}
		if v < 0 {
			v = 0
		}
		w := ((v + epochLen - 1) / epochLen) * epochLen
		return &msg.EpochViewMsg{V: w, Sig: suite.SignerFor(from).Sign(msg.EpochViewStatement(w))}
	}
}

// ---------------------------------------------------------------------------
// The attack table experiment
// ---------------------------------------------------------------------------

// AttackSpecs lists the attack table's strategies in column order, with
// default parameters (f strategy nodes, horizon f, strategy-default
// periods).
func AttackSpecs() []adversary.AttackSpec {
	names := adversary.AttackNames()
	out := make([]adversary.AttackSpec, len(names))
	for i, name := range names {
		out[i] = adversary.AttackSpec{Name: name}
	}
	return out
}

// AttackDelta is the Δ every attack-table cell runs with; the table
// renderer reports latencies in this unit.
const AttackDelta = 50 * time.Millisecond

// attackScenario builds one cell of the attack table: GST = 2s so the
// pre-GST strategies (view-desync, gst-straddle) have room to poison
// the initial state, a fast base network (δ = Δ/10) so the measured
// damage is the attack's, and a steady post-GST window long enough for
// per-decision word statistics.
func attackScenario(p Protocol, f int, spec adversary.AttackSpec, seed int64) Scenario {
	delta := AttackDelta
	gst := 2 * time.Second
	gamma := gammaOf(p, delta)
	return Scenario{
		Name:        fmt.Sprintf("attack-%s-%s-f%d", spec.Name, p, f),
		Protocol:    p,
		F:           f,
		Delta:       delta,
		DeltaActual: delta / 10,
		GST:         gst,
		Attack:      spec,
		Duration:    gst + 30*time.Duration(f+1)*gamma,
		Seed:        seed,
	}
}

// AttackCell is one protocol × strategy cell of an attack sweep.
type AttackCell struct {
	// Protocol and Attack identify the cell.
	Protocol Protocol
	Attack   string
	// Seed is the cell's derived seed.
	Seed int64
	// Decided reports whether an honest-leader decision landed after
	// GST; SyncLatency is its distance from GST.
	Decided     bool
	SyncLatency time.Duration
	// WindowWords is W_GST in words: honest communication from GST to
	// the first honest-leader decision after it.
	WindowWords int64
	// TotalWords is the honest word total over the whole run.
	TotalWords int64
	// Decisions counts honest-leader decisions over the whole run;
	// MeanWords is the steady-state mean words per decision window
	// after GST.
	Decisions int
	MeanWords float64
}

// AttackReport aggregates an attack sweep.
type AttackReport struct {
	// Cells holds one entry per protocol × strategy, protocols outer
	// (AllProtocols order), strategies inner (AttackSpecs order).
	Cells []AttackCell
	// Workers is the worker-pool size the sweep used.
	Workers int
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// AllDecided reports whether every cell resynchronized after GST — the
// attacks are all model-legal, so a stalled cell is a protocol failure.
func (r *AttackReport) AllDecided() bool {
	for i := range r.Cells {
		if !r.Cells[i].Decided {
			return false
		}
	}
	return true
}

// Table renders the report: one row per protocol, one column per
// strategy, each cell "latency words" (post-GST view-synchronization
// latency in Δ and total honest words over the run). The rendering is a
// pure function of the simulated executions, so it is byte-identical at
// every worker count.
func (r *AttackReport) Table() *Table {
	specs := AttackSpecs()
	cols := axisLabels(specs, func(spec adversary.AttackSpec) string { return spec.Name })
	t := gridTable("Attack table: view-sync latency after GST (in Δ) and total honest words under adaptive strategies",
		"protocol", AllProtocols, cols, func(row, col int) string {
			c := cellAt(r.Cells, len(specs), row, col)
			return orStalled(c.Decided, "%.2fΔ %dw", float64(c.SyncLatency)/float64(AttackDelta), c.TotalWords)
		})
	t.AddNote("strategies: vote-then-silence desync, next-f-leaders omission, honest-till-GST straddle, leader-slot darkness + sync spam")
	t.AddNote("words charge honest sends only (msg.Words per message); W_GST windows are in AttackCell.WindowWords")
	return t
}

// measureAttack extracts one cell from a finished attacked run.
func measureAttack(res *Result) AttackCell {
	s := res.Scenario
	cell := AttackCell{
		Protocol:   s.Protocol,
		Attack:     s.Attack.Name,
		Seed:       s.Seed,
		Decisions:  res.DecisionCount(),
		TotalWords: res.Collector.WordsTotal(),
	}
	if w, lat, ok := res.Collector.WordsWindowAfter(res.GST); ok {
		cell.Decided = true
		cell.SyncLatency = lat
		cell.WindowWords = w
	}
	cell.MeanWords = res.Collector.Stats(res.GST, 2).MeanWords
	return cell
}

// AttackSweep runs every protocol under every attack strategy (the
// AllProtocols × AttackSpecs matrix) on the sweep engine. Cell seeds
// derive from (seed, cell index), so the report is byte-identical at
// every worker count.
func AttackSweep(f int, seed int64, opts SweepOptions) *AttackReport {
	specs := AttackSpecs()
	g := sweepGrid(gridShape{rows: len(AllProtocols), cols: len(specs)}, seed, opts,
		func(row, col, _ int) Scenario { return attackScenario(AllProtocols[row], f, specs[col], 0) })
	rep := &AttackReport{Workers: g.Workers, Elapsed: g.Elapsed}
	for i := range g.Cells {
		rep.Cells = append(rep.Cells, measureAttack(g.Cells[i].Result))
	}
	return rep
}

// ---------------------------------------------------------------------------
// Word-complexity scaling (the eventual linear-in-f_a claim, in words)
// ---------------------------------------------------------------------------

// wordsTable runs the AllProtocols × axis grid and renders the maximum
// honest words per decision window, one column per axis value.
func wordsTable(title string, axis []int, label func(v int) string, scenario func(p Protocol, v int) Scenario, seed int64, opts SweepOptions) *Table {
	g := sweepGrid(gridShape{rows: len(AllProtocols), cols: len(axis)}, seed, opts,
		func(row, col, _ int) Scenario { return scenario(AllProtocols[row], axis[col]) })
	return gridTable(title, "protocol", AllProtocols, axisLabels(axis, label), func(row, col int) string {
		r := measureEventual(g.result(row, col))
		return orStalled(r.Decisions > 0, "%.0f", r.MaxWords)
	})
}

// EventualWordsTable regenerates the eventual worst-case communication
// comparison in words: the maximum honest words between consecutive
// decisions as f_a grows at fixed n = 3f+1. Lumiere and Fever grow
// linearly in f_a (O(n·f_a + n) words); LP22 and NK20 pay their Θ(n²)
// synchronizations regardless of how many processors actually failed.
func EventualWordsTable(f int, fas []int, seed int64, opts SweepOptions) *Table {
	t := wordsTable(
		fmt.Sprintf("Eventual worst-case communication in words, n=%d: max words between consecutive decisions", 3*f+1),
		fas, faLabel,
		func(p Protocol, fa int) Scenario { return eventualScenario(p, f, fa, 0) },
		seed, opts)
	t.AddNote("paper: Lumiere/Fever O(n·f_a+n) words — growing with actual faults; LP22/NK20 O(n²) regardless of f_a")
	return t
}

// WordScalingTable sweeps n at fixed f_a and reports the maximum words
// per decision window: the word-complexity counterpart of
// EventualScalingTable. Lumiere's and Fever's rows grow ~linearly in n,
// LP22's and NK20's quadratically — the scenario family where eventual
// word counts track actual faults rather than system size.
func WordScalingTable(fs []int, fa int, seed int64, opts SweepOptions) *Table {
	t := wordsTable(
		fmt.Sprintf("Eventual word-complexity scaling (f_a=%d): max words between consecutive decisions", fa),
		fs, nLabel,
		func(p Protocol, f int) Scenario { return eventualScenario(p, f, fa, 0) },
		seed, opts)
	t.AddNote("divide a row by n: ~flat for Lumiere/Fever (words linear in n), growing for LP22/NK20 (quadratic)")
	return t
}

// ---------------------------------------------------------------------------
// Massive-n scaling (multicast events + bitset quorum tracking)
// ---------------------------------------------------------------------------

// LargeNProtocols are the protocols compared in the massive-n scaling
// table: the paper's Θ(n²)-synchronization baseline against Lumiere.
var LargeNProtocols = []Protocol{ProtoLP22, ProtoLumiere}

// LargeNSizes is the default axis of the massive-n scaling table.
var LargeNSizes = []int{128, 256, 1024, 4096}

// largeNSparsePoints caps the metrics send series for massive-n cells:
// 2²⁰ points bound the collector to tens of megabytes while keeping the
// windowed attribution error (sends coalesce onto later timestamps)
// to tens of sends per point — noise well under 1 word/n on the cells
// the table reports.
const largeNSparsePoints = 1 << 20

// LargeNScenario builds one massive-n steady-state cell: n processors
// (f = ⌊(n−1)/3⌋), one crashed processor, and the eventualScenario
// timing (Δ = 50ms, δ = Δ/10) with a 300s horizon. The horizon matters:
// LP22 races through an epoch (f+1 views) on fast QCs and then sits
// silent until its unbumped clocks reach the next boundary at (f+1)Γ,
// and with Γ = (x+1)Δ = 200ms that is 273.2s at n=4096 — a 240s run
// (the eventual-table horizon) would end before the Θ(n²) epoch
// synchronization ever lands at the largest size.
func LargeNScenario(p Protocol, n int, seed int64) Scenario {
	delta := 50 * time.Millisecond
	return Scenario{
		Name:          fmt.Sprintf("largen-%s-n%d", p, n),
		Protocol:      p,
		N:             n,
		F:             (n - 1) / 3,
		Delta:         delta,
		DeltaActual:   delta / 10,
		Corruptions:   adversary.CrashFirst(1),
		Duration:      300 * time.Second,
		Seed:          seed,
		SparseMetrics: largeNSparsePoints,
		MaxEvents:     1_000_000_000,
	}
}

// LargeNWordsTable sweeps LargeNProtocols over the given system sizes
// and reports the maximum honest words between consecutive decisions
// after warmup, normalized by n — the WordScalingTable measure pushed to
// four-digit n. Lumiere's words/n stays near-flat as n grows (its worst
// window is O(n) words); LP22's grows ~linearly in n (Θ(n²) words: the
// all-to-all epoch-view exchange plus the all-to-all EC relay land in a
// single decision window).
//
// Unlike measureEventual this skips no post-warmup decisions: at n ≥
// 1024 only a handful of epoch boundaries fit in the run, and the first
// decision after warmup is the one immediately following a heavy
// synchronization — skipping it would skip the very window the table
// exists to measure.
func LargeNWordsTable(ns []int, seed int64, opts SweepOptions) *Table {
	g := sweepGrid(gridShape{rows: len(LargeNProtocols), cols: len(ns)}, seed, opts,
		func(row, col, _ int) Scenario { return LargeNScenario(LargeNProtocols[row], ns[col], 0) })
	t := gridTable("Massive-n word-complexity scaling: max honest words between consecutive decisions / n (f_a=1)",
		"protocol", LargeNProtocols, axisLabels(ns, func(n int) string { return fmt.Sprintf("n=%d", n) }),
		func(row, col int) string {
			res := g.result(row, col)
			stats := res.Collector.Stats(types.Time(0).Add(res.Scenario.Duration/4), 0)
			return orStalled(!res.Aborted && stats.Count > 0, "%.1f", stats.MaxWords/float64(res.Cfg.N))
		})
	t.AddNote("~flat row: worst window O(n) words (Lumiere); ~4n row: worst window Θ(n²) words (LP22's epoch sync)")
	return t
}
