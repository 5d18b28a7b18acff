package harness

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/types"
	"lumiere/internal/viz"
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
// never mutated. Strategic processors count against f: Validate has
// checked that the combined corruption set does not exceed it.
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
		// Protocol.EpochLen is the protocol's own epoch length for all
		// four epoch-based protocols.
		return epochViewSpam(suite, s.Protocol.EpochLen(cfg))
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
	gamma := p.Gamma(delta)
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
func (r *AttackReport) Table() *viz.Table {
	specs := AttackSpecs()
	cols := viz.AxisLabels(specs, func(spec adversary.AttackSpec) string { return spec.Name })
	t := viz.GridTable("Attack table: view-sync latency after GST (in Δ) and total honest words under adaptive strategies",
		"protocol", AllProtocols, cols, func(row, col int) string {
			c := cellAt(r.Cells, len(specs), row, col)
			return viz.OrStalled(c.Decided, "%.2fΔ %dw", float64(c.SyncLatency)/float64(AttackDelta), c.TotalWords)
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
	g := SweepGrid(GridShape{Rows: len(AllProtocols), Cols: len(specs)}, seed, opts,
		func(row, col, _ int) Scenario { return attackScenario(AllProtocols[row], f, specs[col], 0) })
	rep := &AttackReport{Workers: g.Workers, Elapsed: g.Elapsed}
	for i := range g.Cells {
		rep.Cells = append(rep.Cells, measureAttack(g.Cells[i].Result))
	}
	return rep
}

// ---------------------------------------------------------------------------
// Massive-n scaling (multicast events + bitset quorum tracking)
// ---------------------------------------------------------------------------

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
		Name:        fmt.Sprintf("largen-%s-n%d", p, n),
		Protocol:    p,
		N:           n,
		F:           (n - 1) / 3,
		Delta:       delta,
		DeltaActual: delta / 10,
		Corruptions: adversary.CrashFirst(1),
		Duration:    300 * time.Second,
		Seed:        seed,
		MaxEvents:   1_000_000_000,
	}
}
