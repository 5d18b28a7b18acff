package eval

import (
	"fmt"
	"strings"
	"time"

	"lumiere/internal/harness"
	"lumiere/internal/redteam"
	"lumiere/internal/types"
	"lumiere/internal/viz"
)

// This file holds the sections that render a sweep harness owns
// (AttackSweep, ChaosSweep, WANSweep, LargeNScenario's grid), the
// clock-drift tolerance sweep, and the red-team frontier: each turns a
// report into outputs plus the problem that fails the run.

// attackTable renders AttackSweep at f = sc.AttackF; every attack is
// model-legal, so a stalled cell is its problem.
func attackTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	rep := harness.AttackSweep(sc.AttackF, seed, opts)
	problem := ""
	if !rep.AllDecided() {
		problem = "attack sweep has stalled cells: a model-legal attack defeated a protocol"
	}
	return one("attack_table", rep.Table()), problem
}

// chaosConformanceTable renders ChaosSweep over sc.ChaosCells
// scenarios; a non-conformant cell is its problem.
func chaosConformanceTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	rep := harness.ChaosSweep(sc.ChaosCells, seed, opts)
	problem := ""
	if !rep.Conformant() {
		problem = fmt.Sprintf("chaos sweep NOT conformant: %d problems", rep.Problems)
	}
	return one("chaos_conformance", rep.Table()), problem
}

// largeNProtocols are the protocols compared in the massive-n scaling
// table: the paper's Θ(n²)-synchronization baseline against Lumiere.
var largeNProtocols = []harness.Protocol{harness.ProtoLP22, harness.ProtoLumiere}

// largeNWordsTable sweeps largeNProtocols over the system sizes
// sc.LargeNs and reports the maximum honest words between consecutive
// decisions after warmup, normalized by n — the word-scaling measure of
// eventualScaling pushed to four-digit n. Lumiere's words/n stays
// near-flat as n grows (its worst window is O(n) words); LP22's grows
// ~linearly in n (Θ(n²) words: the all-to-all epoch-view exchange plus
// the all-to-all EC relay land in a single decision window).
//
// Unlike measureEventual this skips no post-warmup decisions: at n ≥
// 1024 only a handful of epoch boundaries fit in the run, and the first
// decision after warmup is the one immediately following a heavy
// synchronization — skipping it would skip the very window the table
// exists to measure.
func largeNWordsTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	ns := sc.LargeNs
	g := harness.SweepGrid(harness.GridShape{Rows: len(largeNProtocols), Cols: len(ns)}, seed, opts,
		func(row, col, _ int) harness.Scenario {
			return harness.LargeNScenario(largeNProtocols[row], ns[col], 0)
		})
	t := viz.GridTable("Massive-n word-complexity scaling: max honest words between consecutive decisions / n (f_a=1)",
		"protocol", largeNProtocols, viz.AxisLabels(ns, func(n int) string { return fmt.Sprintf("n=%d", n) }),
		func(row, col int) string {
			res := g.Result(row, col)
			stats := res.Collector.Stats(types.Time(0).Add(res.Scenario.Duration/4), 0)
			return viz.OrStalled(!res.Aborted && stats.Count > 0, "%.1f", stats.MaxWords/float64(res.Cfg.N))
		})
	t.AddNote("~flat row: worst window O(n) words (Lumiere); ~4n row: worst window Θ(n²) words (LP22's epoch sync)")
	return one("largen_words", t), ""
}

// topologyTable renders WANSweep at f = sc.WANF. Every preset is
// in-model, so a stalled sync run or an SMR run that committed nothing
// is its problem.
func topologyTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	rep := harness.WANSweep(sc.WANF, seed, opts)
	problem := ""
	for _, c := range rep.Cells {
		if !c.Decided || c.Committed == 0 {
			problem = fmt.Sprintf("WAN sweep stalled %s on the in-model %s topology", c.Protocol, c.Preset)
			break
		}
	}
	return one("wan_topology", rep.Table()), problem
}

// ---------------------------------------------------------------------------
// Clock-drift tolerance
// ---------------------------------------------------------------------------

// driftPPMAxis is the rate-drift axis of the drift tolerance table, in
// parts per million, spanning realistic crystals (≤100ppm), the in-model
// tolerance boundary (|ppm|·Γ ≤ Δ·10⁶: 100k ppm for Lumiere's Γ=10Δ,
// 250k for LP22's Γ=4Δ), and far beyond it — half-speed/1.5×-speed
// clocks at clock.Drift's hard range.
var driftPPMAxis = []int64{0, 100, 10_000, 100_000, 250_000, 500_000}

// driftScenario builds one drift cell: nodes alternate ±ppm by parity
// (worst-case pairwise rate spread 2·ppm) with skews fanned over
// [−Δ/2, Δ/2], invariant checking on. Out-of-model rates set
// UncheckedWAN — the point of the table's right half is watching the
// guarantees degrade.
func driftScenario(p harness.Protocol, f int, ppm int64, seed int64) harness.Scenario {
	delta := harness.AttackDelta
	gst := 2 * time.Second
	gamma := p.Gamma(delta)
	n := 3*f + 1
	drift := make([]int64, n)
	skew := make([]time.Duration, n)
	for i := range drift {
		if i%2 == 0 {
			drift[i] = ppm
		} else {
			drift[i] = -ppm
		}
		skew[i] = -delta/2 + delta*time.Duration(i)/time.Duration(n-1)
	}
	return harness.Scenario{
		Name:            fmt.Sprintf("drift-%s-f%d-ppm%d", p, f, ppm),
		Protocol:        p,
		F:               f,
		Delta:           delta,
		DeltaActual:     delta / 10,
		GST:             gst,
		Duration:        gst + 30*time.Duration(f+1)*gamma,
		Seed:            seed,
		DriftPPM:        drift,
		DriftSkew:       skew,
		CheckInvariants: true,
		UncheckedWAN:    time.Duration(max(ppm, -ppm)*int64(gamma)/1_000_000) > delta,
	}
}

// driftCell is one protocol × ppm cell of a drift sweep.
type driftCell struct {
	Protocol harness.Protocol
	PPM      int64
	// InModel reports whether the rate is inside the harness's drift
	// tolerance for this protocol's Γ (no UncheckedWAN needed).
	InModel bool
	// Decided and SyncLatency are the post-GST liveness measurements;
	// Problems is the full conformance report (empty = Lemma 5.1–5.3
	// obligations all hold).
	Decided     bool
	SyncLatency time.Duration
	Problems    []string
}

// driftReport aggregates a drift sweep.
type driftReport struct {
	// Cells holds protocols outer (WANProtocols order), ppm inner (axis
	// order).
	Cells []driftCell
	Axis  []int64
}

// driftSweep runs WANProtocols over the given ppm axis on the sweep
// engine. Cell seeds derive from (seed, cell index), so the report is
// byte-identical at every worker count.
func driftSweep(f int, ppms []int64, seed int64, opts harness.SweepOptions) *driftReport {
	g := harness.SweepGrid(harness.GridShape{Rows: len(harness.WANProtocols), Cols: len(ppms)}, seed, opts,
		func(row, col, _ int) harness.Scenario {
			return driftScenario(harness.WANProtocols[row], f, ppms[col], 0)
		})
	rep := &driftReport{Axis: ppms}
	for i := range g.Cells {
		res := g.Cells[i].Result
		cell := driftCell{
			Protocol: res.Scenario.Protocol,
			PPM:      res.Scenario.DriftPPM[0],
			InModel:  !res.Scenario.UncheckedWAN,
			Problems: harness.ConformanceReport(res),
		}
		if d, ok := res.Collector.FirstDecisionAfter(res.GST); ok {
			cell.Decided = true
			cell.SyncLatency = d.At.Sub(res.GST)
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep
}

// InModelClean reports whether every in-model cell conforms — the
// regression gate: drift the harness accepts without UncheckedWAN must
// never break a Lemma 5.1–5.3 obligation.
func (r *driftReport) InModelClean() bool {
	for i := range r.Cells {
		if r.Cells[i].InModel && len(r.Cells[i].Problems) > 0 {
			return false
		}
	}
	return true
}

// Table renders the report: one row per protocol, one column per ppm,
// each cell the post-GST sync latency in Δ plus a conformance marker —
// clean, or the number of broken obligations. Out-of-model columns are
// flagged in the header row per protocol Γ implicitly (the boundary
// differs per protocol; InModel is per cell).
func (r *driftReport) Table() *viz.Table {
	cols := viz.AxisLabels(r.Axis, func(ppm int64) string { return fmt.Sprintf("±%dppm", ppm) })
	t := viz.GridTable("Clock-drift tolerance: view-sync latency after GST (in Δ) and conformance as hardware clocks drift",
		"protocol", harness.WANProtocols, cols, func(row, col int) string {
			c := &r.Cells[row*len(r.Axis)+col]
			cell := viz.OrStalled(c.Decided, "%.2fΔ", float64(c.SyncLatency)/float64(harness.AttackDelta))
			switch {
			case len(c.Problems) > 0:
				cell += fmt.Sprintf(" %d✗", len(c.Problems))
			case !c.InModel:
				cell += " *"
			}
			return cell
		})
	t.AddNote("nodes alternate ±ppm (pairwise rate spread 2·ppm), skews fanned over [−Δ/2, Δ/2]")
	t.AddNote("* = past the in-model tolerance |ppm|·Γ ≤ Δ·10⁶ (run under UncheckedWAN); N✗ = N broken conformance obligations")
	return t
}

// driftToleranceTable renders driftSweep over driftPPMAxis at f =
// sc.WANF; an in-model cell that breaks an obligation is its problem.
func driftToleranceTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	rep := driftSweep(sc.WANF, driftPPMAxis, seed, opts)
	problem := ""
	if !rep.InModelClean() {
		problem = "drift sweep NOT clean: an in-model drift magnitude violated Lemma 5.1-5.3"
	}
	return one("wan_drift", rep.Table()), problem
}

// ---------------------------------------------------------------------------
// The red-team frontier
// ---------------------------------------------------------------------------

// FrontierOutput is the Name of the red-team section's artifact output:
// the searched frontier's committed JSON form (FRONTIER.json at
// DefaultScale).
const FrontierOutput = "frontier"

// redTeamFrontier runs the red-team search over sc.RedTeam with the
// section's seed and renders the frontier twice: as a table and as the
// artifact JSON. Every searched scenario is model-legal, so a stalled
// entry is its problem.
func redTeamFrontier(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	cfg := sc.RedTeam
	cfg.Seed = seed
	fr := redteam.SearchFrontier(cfg, opts)
	var stalled []string
	for _, e := range fr.Entries {
		if !e.Decided {
			stalled = append(stalled, fmt.Sprintf("%s/%s", e.Protocol, e.Objective))
		}
	}
	problem := ""
	if len(stalled) > 0 {
		problem = fmt.Sprintf("red-team search stalled %s: a model-legal scenario defeated a protocol", strings.Join(stalled, ", "))
	}
	return []Output{
		{Name: "redteam_frontier", Table: fr.Table()},
		{Key: "RedTeamFrontierJSON", Name: FrontierOutput, Text: string(fr.JSON())},
	}, problem
}
