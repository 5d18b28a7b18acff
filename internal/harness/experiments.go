package harness

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/network"
	"lumiere/internal/types"
	"lumiere/internal/viz"
)

// This file defines the experiments that regenerate every table and figure
// of the paper (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured records). Every experiment is
// split into a scenario builder and a pure measure over the resulting
// *Result, so each table driver runs its full protocol × axis grid as a
// single Sweep (sweepGrid in sweep.go) fanned across the worker pool;
// sweepGrid derives the per-cell seeds with DeriveSeed, making the
// rendered tables byte-identical at any worker count.

// WorstCaseResult is one protocol/size point of the worst-case
// experiments.
type WorstCaseResult struct {
	Protocol Protocol
	F, N     int
	Msgs     int64
	Latency  time.Duration
	Strategy string
	Decided  bool
}

// worstStrategy is one adversary strategy of the worst-case experiment: a
// scenario builder plus the measure extracting the strategy's headline
// quantities from the finished run.
type worstStrategy struct {
	name     string
	scenario func(p Protocol, f int, seed int64) Scenario
	measure  func(*Result) WorstCaseResult
}

// worstStrategies lists the implemented adversary strategies, in the
// order worstCase documents them.
var worstStrategies = []worstStrategy{
	{"crash", worstCaseCrashScenario, measureWorstCase},
	{"desync", desyncScenario, measureWorstCase},
	{"byz-leaders", steadyScenario(false), measureSteady},
	{"crash-steady", steadyScenario(true), measureSteady},
}

// worstCase measures §2's worst-case communication W_{GST+Δ} and latency
// t*_GST − GST as the maximum over the implemented adversary strategies:
//
//   - "crash": f processors crash from the start, joins are staggered,
//     pre-GST traffic is withheld to GST+Δ, and every post-GST message
//     takes the full Δ. This exposes relay pathologies (Cogsworth's
//     aggregator chains, NK20's fanouts) and faulty-leader stalls.
//
//   - "desync": f Byzantine processors behave honestly while the
//     adversary blocks f honest "laggards"; QCs formed with Byzantine
//     votes bump the remaining f+1 honest clocks an epoch's worth of
//     views ahead; then the Byzantine processors go silent shortly before
//     GST. At GST+Δ the (f+1)st honest gap is Θ(nΓ) and the protocols
//     must resynchronize — the paper's Θ(n²)/Θ(nΔ) worst case.
//
//   - "byz-leaders"/"crash-steady" measure the unavoidable stall chain: f
//     non-proposing (resp. crashed) processors waste their views while
//     the adversary delays every message to Δ; consecutive Byzantine
//     leaders cost Θ(Γ) each, up to Θ(fΓ) = Θ(nΔ) between decisions.
//
// The strategies are independent executions, so they run as a small
// sweep; all use the same seed (the strategy, not the randomness, is the
// variable).
func worstCase(p Protocol, f int, seed int64, opts SweepOptions) WorstCaseResult {
	scenarios := make([]Scenario, len(worstStrategies))
	for i, st := range worstStrategies {
		scenarios[i] = st.scenario(p, f, seed)
	}
	opts.KeepSeeds = true
	sr := Sweep(scenarios, opts)
	return reduceWorstCase(func(i int) *Result { return sr.Cells[i].Result })
}

// reduceWorstCase combines one result per strategy (result(i) ran
// worstStrategies[i]) into the strategy maximum.
func reduceWorstCase(result func(strategy int) *Result) WorstCaseResult {
	var out WorstCaseResult
	var maxLat time.Duration
	var first WorstCaseResult
	for i, st := range worstStrategies {
		c := st.measure(result(i))
		c.Strategy = st.name
		if i == 0 {
			first = c
		}
		if !c.Decided {
			continue
		}
		if !out.Decided || c.Msgs > out.Msgs {
			out = c
		}
		if c.Latency > maxLat {
			maxLat = c.Latency
		}
	}
	if !out.Decided {
		return first
	}
	out.Latency = maxLat
	return out
}

// steadyScenario builds the scenario of the steady worst-case strategy: a
// long adversarial-delay run with f faulty processors holding consecutive
// leader slots, crashed (silent, so they neither aggregate nor vote) or
// non-proposing (they keep others synchronized but waste their views).
func steadyScenario(crash bool) func(p Protocol, f int, seed int64) Scenario {
	return func(p Protocol, f int, seed int64) Scenario {
		delta := 50 * time.Millisecond
		gamma := gammaOf(p, delta)
		corr := adversary.NonProposingSet(consecutive(f)...)
		if crash {
			corr = adversary.CrashFirst(f)
		}
		return Scenario{
			Name:        fmt.Sprintf("worst-steady-%s-f%d-crash%v", p, f, crash),
			Protocol:    p,
			F:           f,
			Delta:       delta,
			Delay:       network.Adversarial{},
			Corruptions: corr,
			Duration:    80 * time.Duration(f+1) * gamma,
			Seed:        seed,
		}
	}
}

// measureSteady extracts the maximum per-decision window of a steady
// worst-case run.
func measureSteady(res *Result) WorstCaseResult {
	s := res.Scenario
	gamma := gammaOf(s.Protocol, s.Delta)
	stats := res.Collector.Stats(types.Time(0).Add(20*time.Duration(s.F+1)*gamma), 2)
	out := WorstCaseResult{Protocol: s.Protocol, F: s.F, N: res.Cfg.N}
	if stats.Count == 0 {
		return out
	}
	out.Decided = true
	out.Msgs = int64(stats.MaxMsgs)
	out.Latency = stats.MaxGap
	return out
}

func consecutive(k int) []types.NodeID {
	out := make([]types.NodeID, k)
	for i := range out {
		out[i] = types.NodeID(i)
	}
	return out
}

// worstCaseCrashScenario builds the crash strategy's scenario.
func worstCaseCrashScenario(p Protocol, f int, seed int64) Scenario {
	delta := 50 * time.Millisecond
	gst := 1 * time.Second
	gamma := gammaOf(p, delta)
	return Scenario{
		Name:         fmt.Sprintf("worst-crash-%s-f%d", p, f),
		Protocol:     p,
		F:            f,
		Delta:        delta,
		Delay:        network.Adversarial{},
		PreGSTChaos:  true,
		GST:          gst,
		StartStagger: gst / 2,
		Corruptions:  adversary.CrashFirst(f),
		Duration:     gst + 40*time.Duration(f+1)*gamma,
		Seed:         seed,
	}
}

// desyncScenario builds the desynchronization adversary's scenario: until
// tBlock everything is fast and the Byzantine processors behave honestly;
// from tBlock the adversary blocks the last f honest processors
// ("laggards"), so QCs formed with Byzantine votes keep bumping the
// remaining f+1 honest clocks far ahead of the laggards'; at tKill the
// Byzantine processors crash, freezing progress; at GST the blocking
// ends (post-GST everything takes the full Δ).
func desyncScenario(p Protocol, f int, seed int64) Scenario {
	delta := 50 * time.Millisecond
	fast := delta / 50
	gamma := gammaOf(p, delta)
	n := 3*f + 1
	tBlock := types.Time(0).Add(1 * time.Second)
	tKill := tBlock.Add(3*time.Duration(f)*gamma + time.Second)
	gst := tKill.Add(time.Duration(f) * gamma)
	laggards := make(map[types.NodeID]bool, f)
	for i := 2*f + 1; i < n; i++ {
		laggards[types.NodeID(i)] = true
	}
	corr := make([]adversary.Corruption, f)
	for i := range corr {
		corr[i] = adversary.Corruption{
			Node:     types.NodeID(i),
			Behavior: adversary.BehaviorCrashAt,
			At:       tKill.Duration(),
		}
	}
	policy := network.Phased{
		Switch: tBlock,
		Before: network.Fixed{D: fast},
		After: network.Phased{
			Switch: gst,
			Before: network.Targeted{
				Base:    network.Fixed{D: fast},
				Slow:    network.Adversarial{},
				Targets: laggards,
			},
			After: network.Adversarial{},
		},
	}
	return Scenario{
		Name:        fmt.Sprintf("desync-%s-f%d", p, f),
		Protocol:    p,
		F:           f,
		Delta:       delta,
		Delay:       policy,
		GST:         gst.Duration(),
		Corruptions: corr,
		Duration:    gst.Duration() + 14*time.Duration(n)*gamma + 10*time.Second,
		Seed:        seed,
	}
}

// measureWorstCase extracts W_{GST+Δ} and the post-GST decision latency.
func measureWorstCase(res *Result) WorstCaseResult {
	s := res.Scenario
	out := WorstCaseResult{Protocol: s.Protocol, F: s.F, N: res.Cfg.N}
	msgs, _, ok := res.Collector.WindowAfter(res.GST.Add(res.Cfg.Delta))
	if !ok {
		return out
	}
	out.Decided = true
	out.Msgs = msgs
	if d, found := res.Collector.FirstDecisionAfter(res.GST); found {
		out.Latency = d.At.Sub(res.GST)
	}
	return out
}

// Table1WorstCase regenerates the "Worst-case Communication" and
// "Worst-case Latency" rows of Table 1 as an empirical n-sweep: the
// protocol × f × strategy grid runs as one sweep, and all of a cell's
// strategies share the cell's seed (the strategy, not the randomness, is
// the variable).
func Table1WorstCase(fs []int, seed int64, opts SweepOptions) (*Table, *Table) {
	g := sweepGrid(gridShape{rows: len(AllProtocols), cols: len(fs), runs: len(worstStrategies), sharedSeed: true}, seed, opts,
		func(row, col, run int) Scenario { return worstStrategies[run].scenario(AllProtocols[row], fs[col], 0) })
	worst := func(row, col int) WorstCaseResult {
		return reduceWorstCase(func(run int) *Result { return g.cell(row, col, run).Result })
	}
	cols := axisLabels(fs, nLabel)
	comm := gridTable("Table 1 (worst-case communication): messages from GST+Δ to first honest-leader decision",
		"protocol", AllProtocols, cols, func(row, col int) string {
			r := worst(row, col)
			return orStalled(r.Decided, "%d", r.Msgs)
		})
	lat := gridTable("Table 1 (worst-case latency): GST to first honest-leader decision",
		"protocol", AllProtocols, cols, func(row, col int) string {
			r := worst(row, col)
			return orStalled(r.Decided, "%.2fΔ", float64(r.Latency)/float64(50*time.Millisecond))
		})
	comm.AddNote("paper: Cogsworth O(n³), NK20/LP22/Fever/Lumiere O(n²)")
	lat.AddNote("paper: Cogsworth O(n²Δ), NK20/LP22/Lumiere O(nΔ), Fever O(f_aΔ+δ)")
	return comm, lat
}

// nLabel and faLabel head the columns of the n-sweep (axis value f,
// n = 3f+1) and f_a-sweep tables.
func nLabel(f int) string   { return fmt.Sprintf("n=%d", 3*f+1) }
func faLabel(fa int) string { return fmt.Sprintf("fa=%d", fa) }

// orStalled renders a table cell: the formatted measure, or "stalled"
// when the run never produced it.
func orStalled(ok bool, format string, args ...any) string {
	if !ok {
		return "stalled"
	}
	return fmt.Sprintf(format, args...)
}

// EventualResult is one protocol point of the steady-state experiments.
type EventualResult struct {
	Protocol  Protocol
	F, N, Fa  int
	MaxMsgs   float64
	MeanMsgs  float64
	MaxWords  float64
	MeanWords float64
	MaxGap    time.Duration
	MeanGap   time.Duration
	Decisions int
	HeavySync int
}

// eventualScenario builds the steady-state scenario: GST = 0, fixed
// actual delay δ = Δ/10, f_a crashed processors, a long run.
func eventualScenario(p Protocol, f, fa int, seed int64) Scenario {
	delta := 50 * time.Millisecond
	return Scenario{
		Name:        fmt.Sprintf("eventual-%s-f%d-fa%d", p, f, fa),
		Protocol:    p,
		F:           f,
		Delta:       delta,
		DeltaActual: delta / 10,
		Corruptions: adversary.CrashFirst(fa),
		Duration:    240 * time.Second,
		Seed:        seed,
	}
}

// measureEventual extracts the per-decision-window maxima after a warmup
// (§2's eventual worst-case communication and latency). The paper's
// eventual measures allow a small constant number of warmup decisions.
func measureEventual(res *Result) EventualResult {
	s := res.Scenario
	warm := types.Time(0).Add(s.Duration / 4)
	stats := res.Collector.Stats(warm, 5)
	return EventualResult{
		Protocol:  s.Protocol,
		F:         s.F,
		N:         res.Cfg.N,
		Fa:        len(s.Corruptions),
		MaxMsgs:   stats.MaxMsgs,
		MeanMsgs:  stats.MeanMsgs,
		MaxWords:  stats.MaxWords,
		MeanWords: stats.MeanWords,
		MaxGap:    stats.MaxGap,
		MeanGap:   stats.MeanGap,
		Decisions: stats.Count,
		HeavySync: len(res.Collector.HeavySyncViews(warm)),
	}
}

// eventual runs the steady-state scenario for one protocol and size and
// measures the per-decision-window maxima.
func eventual(p Protocol, f, fa int, seed int64) EventualResult {
	return measureEventual(Run(eventualScenario(p, f, fa, seed)))
}

// Table1Eventual regenerates the "Eventual Worst-case Communication" and
// "Eventual Worst-case Latency" rows of Table 1 as an f_a-sweep at fixed
// n = 3f+1.
func Table1Eventual(f int, fas []int, seed int64, opts SweepOptions) (*Table, *Table) {
	g := sweepGrid(gridShape{rows: len(AllProtocols), cols: len(fas)}, seed, opts,
		func(row, col, _ int) Scenario { return eventualScenario(AllProtocols[row], f, fas[col], 0) })
	cols := axisLabels(fas, faLabel)
	comm := gridTable(fmt.Sprintf("Table 1 (eventual worst-case communication), n=%d: max messages between consecutive decisions", 3*f+1),
		"protocol", AllProtocols, cols, func(row, col int) string {
			r := measureEventual(g.result(row, col))
			return orStalled(r.Decisions > 0, "%.0f", r.MaxMsgs)
		})
	lat := gridTable(fmt.Sprintf("Table 1 (eventual worst-case latency), n=%d: max gap between consecutive decisions (in Δ)", 3*f+1),
		"protocol", AllProtocols, cols, func(row, col int) string {
			r := measureEventual(g.result(row, col))
			return orStalled(r.Decisions > 0, "%.2fΔ", float64(r.MaxGap)/float64(50*time.Millisecond))
		})
	comm.AddNote("paper: Cogsworth O(n+n·f_a²), NK20 O(n²), LP22 O(n²), Fever/Lumiere O(n·f_a+n)")
	lat.AddNote("paper: Cogsworth O(f_a²Δ+δ), NK20/LP22 O(nΔ), Fever/Lumiere O(f_aΔ+δ)")
	return comm, lat
}

// EventualScalingData runs the n-sweep at fixed f_a for every protocol —
// the per-decision communication scaling (Lumiere/Fever O(n) vs LP22/NK20
// O(n²)) that EventualScalingTable and EventualScalingPlot render.
func EventualScalingData(fs []int, fa int, seed int64, opts SweepOptions) map[Protocol][]EventualResult {
	g := sweepGrid(gridShape{rows: len(AllProtocols), cols: len(fs)}, seed, opts,
		func(row, col, _ int) Scenario { return eventualScenario(AllProtocols[row], fs[col], fa, 0) })
	out := make(map[Protocol][]EventualResult, len(AllProtocols))
	for row, p := range AllProtocols {
		for col := range fs {
			out[p] = append(out[p], measureEventual(g.result(row, col)))
		}
	}
	return out
}

// EventualScalingTable formats pre-computed sweep data.
func EventualScalingTable(data map[Protocol][]EventualResult, fs []int, fa int) *Table {
	return gridTable(fmt.Sprintf("Eventual communication scaling (f_a=%d): max messages between consecutive decisions", fa),
		"protocol", AllProtocols, axisLabels(fs, nLabel), func(row, col int) string {
			r := data[AllProtocols[row]][col]
			return orStalled(r.Decisions > 0, "%.0f", r.MaxMsgs)
		})
}

// EventualScalingPlot renders the sweep as a log-scale ASCII chart, the
// visual counterpart of the Table 1 communication rows.
func EventualScalingPlot(data map[Protocol][]EventualResult) string {
	var series []viz.Series
	for _, p := range AllProtocols {
		s := viz.Series{Name: string(p)}
		for _, r := range data[p] {
			if r.Decisions == 0 {
				continue
			}
			s.X = append(s.X, float64(r.N))
			s.Y = append(s.Y, r.MaxMsgs)
		}
		series = append(series, s)
	}
	return viz.Plot("max messages per decision window vs n (log y)", series, 64, 16, true)
}

// Figure1Result reproduces Figure 1: after a burst of fast QCs, a faulty
// leader stalls LP22 for almost (f+1)Γ because clocks are never bumped;
// Lumiere bounds the stall by ~Γ per faulty leader.
type Figure1Result struct {
	Protocol    Protocol
	Gamma       time.Duration
	MaxStall    time.Duration
	StallGammas float64
	Decisions   int
}

// figure1Scenario builds the Figure 1 scenario for one protocol and size:
// a fast network (δ = Δ/20) with a single non-proposing Byzantine
// processor.
func figure1Scenario(p Protocol, f int, seed int64) Scenario {
	delta := 50 * time.Millisecond
	return Scenario{
		Name:        fmt.Sprintf("figure1-%s-f%d", p, f),
		Protocol:    p,
		F:           f,
		Delta:       delta,
		DeltaActual: delta / 20,
		Corruptions: adversary.NonProposingSet(types.NodeID(3*f - 1)),
		Duration:    240 * time.Second,
		Seed:        seed,
	}
}

// measureFigure1 extracts the single-fault stall. The stall a single
// fault causes is LP22's issue (i): after fast QCs the unbumped clocks
// must catch up, up to (f+1)Γ; Lumiere/Fever bound it by ~Γ per faulty
// view pair (≤ ~4Γ when the faulty processor holds the 4-view block
// boundary), independent of n.
func measureFigure1(res *Result) Figure1Result {
	stats := res.Collector.Stats(types.Time(0).Add(30*time.Second), 2)
	return Figure1Result{
		Protocol:    res.Scenario.Protocol,
		Gamma:       res.Gamma,
		MaxStall:    stats.MaxGap,
		StallGammas: float64(stats.MaxGap) / float64(res.Gamma),
		Decisions:   stats.Count,
	}
}

// figure1 runs the Figure 1 scenario for one protocol and size.
func figure1(p Protocol, f int, seed int64) Figure1Result {
	return measureFigure1(Run(figure1Scenario(p, f, seed)))
}

// figure1Protocols is the Figure 1 comparison set, in presentation order.
var figure1Protocols = []Protocol{ProtoLP22, ProtoNK20, ProtoFever, ProtoBasic, ProtoLumiere}

// Figure1Table renders the Figure 1 comparison as an n-sweep: the stall
// caused by one Byzantine processor, in units of each protocol's Γ.
func Figure1Table(fs []int, seed int64, opts SweepOptions) *Table {
	g := sweepGrid(gridShape{rows: len(figure1Protocols), cols: len(fs)}, seed, opts,
		func(row, col, _ int) Scenario { return figure1Scenario(figure1Protocols[row], fs[col], 0) })
	t := gridTable("Figure 1: max stall caused by a single Byzantine leader after fast QCs (in units of Γ)",
		"protocol", figure1Protocols, axisLabels(fs, nLabel), func(row, col int) string {
			r := measureFigure1(g.result(row, col))
			return orStalled(r.Decisions > 0, "%.2fΓ", r.StallGammas)
		})
	t.AddNote("paper (Fig. 1): LP22's stall grows to almost (f+1)Γ = O(nΔ); Lumiere/Fever stay O(Γ) = O(Δ) per faulty leader")
	return t
}

// ResponsivenessPoint is one δ point of the smooth-responsiveness sweep.
type ResponsivenessPoint struct {
	DeltaActual time.Duration
	MeanGap     time.Duration
	MaxGap      time.Duration
}

// responsivenessScenario builds one δ point of the responsiveness sweep
// (Δ fixed at 100ms, f_a = 0).
func responsivenessScenario(p Protocol, f int, d time.Duration, seed int64) Scenario {
	return Scenario{
		Name:        fmt.Sprintf("resp-%s-%v", p, d),
		Protocol:    p,
		F:           f,
		Delta:       100 * time.Millisecond,
		DeltaActual: d,
		Duration:    120 * time.Second,
		Seed:        seed,
	}
}

// measureResponsiveness extracts the steady-state decision gap.
func measureResponsiveness(res *Result) ResponsivenessPoint {
	stats := res.Collector.Stats(types.Time(0).Add(30*time.Second), 5)
	return ResponsivenessPoint{
		DeltaActual: res.Scenario.DeltaActual,
		MeanGap:     stats.MeanGap,
		MaxGap:      stats.MaxGap,
	}
}

// ResponsivenessTable renders the δ-sweep for every protocol.
func ResponsivenessTable(f int, seed int64, opts SweepOptions) *Table {
	deltas := []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	g := sweepGrid(gridShape{rows: len(AllProtocols), cols: len(deltas)}, seed, opts,
		func(row, col, _ int) Scenario { return responsivenessScenario(AllProtocols[row], f, deltas[col], 0) })
	t := gridTable(fmt.Sprintf("Smooth optimistic responsiveness (f_a=0, n=%d, Δ=100ms): mean decision gap vs actual delay δ", 3*f+1),
		"protocol", AllProtocols, axisLabels(deltas, time.Duration.String), func(row, col int) string {
			return measureResponsiveness(g.result(row, col)).MeanGap.Round(time.Millisecond / 10).String()
		})
	t.AddNote("responsive protocols track ~3δ (x=3 network round-trips); clock-driven entry pins the gap near Γ")
	return t
}

// heavySyncScenario builds the heavy-synchronization count scenario.
func heavySyncScenario(p Protocol, f, fa int, dur time.Duration, seed int64) Scenario {
	delta := 50 * time.Millisecond
	return Scenario{
		Name:        fmt.Sprintf("heavy-%s-f%d-fa%d", p, f, fa),
		Protocol:    p,
		F:           f,
		Delta:       delta,
		DeltaActual: delta / 10,
		Corruptions: adversary.CrashFirst(fa),
		Duration:    dur,
		Seed:        seed,
	}
}

// measureHeavySync counts Theorem 1.1(4)'s mechanism: the number of heavy
// Θ(n²) epoch synchronizations started after the warmup, plus the number
// of epochs the run traversed. Lumiere retires heavy syncs once an epoch
// satisfies the success criterion; LP22 and Basic Lumiere pay one per
// epoch forever.
func measureHeavySync(res *Result) (heavy int, epochsElapsed float64) {
	s := res.Scenario
	warm := types.Time(0).Add(s.Duration / 4)
	heavy = len(res.Collector.HeavySyncViews(warm))
	decs := res.Collector.Decisions()
	var views float64
	if len(decs) > 0 {
		views = float64(decs[len(decs)-1].View)
	}
	return heavy, views / float64(accountingEpochLen(s, res.Cfg))
}

// heavySyncProtocols is the heavy-sync comparison set.
var heavySyncProtocols = []Protocol{ProtoLP22, ProtoBasic, ProtoLumiere}

// HeavySyncTable renders the heavy-synchronization comparison: per fault
// mix f_a ∈ {0, 1}, a heavy-sync count column and an epochs column.
func HeavySyncTable(f int, seed int64, opts SweepOptions) *Table {
	fas := []int{0, 1}
	g := sweepGrid(gridShape{rows: len(heavySyncProtocols), cols: len(fas)}, seed, opts,
		func(row, col, _ int) Scenario {
			return heavySyncScenario(heavySyncProtocols[row], f, fas[col], 240*time.Second, 0)
		})
	t := gridTable(fmt.Sprintf("Heavy (Θ(n²)) epoch synchronizations after warmup, n=%d, 240s run", 3*f+1),
		"protocol", heavySyncProtocols, []string{"fa=0 heavy", "fa=0 epochs", "fa=1 heavy", "fa=1 epochs"},
		func(row, col int) string {
			heavy, epochs := measureHeavySync(g.result(row, col/2))
			if col%2 == 0 {
				return fmt.Sprintf("%d", heavy)
			}
			return fmt.Sprintf("%.0f", epochs)
		})
	t.AddNote("paper: Lumiere performs an expected constant number of heavy syncs after GST; LP22/Basic one per epoch")
	return t
}

// ChaosResult is one protocol/condition point of the chaos table.
type ChaosResult struct {
	Protocol  Protocol
	Condition string
	F, N      int
	// SyncLatency is the view-synchronization latency under the
	// condition: first honest-leader decision after GST − GST.
	SyncLatency time.Duration
	Decisions   int
	Decided     bool
}

// chaosCondition is one named fault condition of the chaos table: a
// transform applied to the base chaos scenario.
type chaosCondition struct {
	name  string
	apply func(s *Scenario)
}

// chaosConditions lists the chaos table's columns, each a pre-GST fault
// regime the §2 model admits beyond pure delay. All heal at (or by
// shortly after) GST, so the measured quantity is how fast each
// protocol resynchronizes views once the model stabilizes.
var chaosConditions = []chaosCondition{
	{"partition-heal", func(s *Scenario) {
		// Split-brain: an island of f+1 processors is cut off until
		// GST, so no side holds a quorum of synchronized processors;
		// the clamp floods the withheld traffic back at GST+Δ.
		island := make([]types.NodeID, s.F+1)
		for i := range island {
			island[i] = types.NodeID(i)
		}
		s.Partitions = [][]types.NodeID{island}
	}},
	{"loss-40", func(s *Scenario) {
		// 40% of pre-GST traffic is lost (delivered at GST+Δ).
		s.Loss = 0.4
		s.LossUntil = s.GST
	}},
	{"dup-reorder", func(s *Scenario) {
		// Every third message is duplicated and delays jitter by up
		// to Δ, reordering traffic for the whole run.
		s.Duplication = 0.33
		s.ReorderJitter = s.Delta
	}},
	{"churn", func(s *Scenario) {
		// f processors crash and recover in staggered waves, the last
		// dip ending after GST.
		for i := 0; i < s.F; i++ {
			start := time.Duration(200+600*i) * time.Millisecond
			s.Corruptions = append(s.Corruptions, adversary.Churn(types.NodeID(i),
				adversary.Downtime{From: start, To: start + 500*time.Millisecond},
				adversary.Downtime{From: s.GST - 200*time.Millisecond, To: s.GST + 500*time.Millisecond},
			))
		}
	}},
}

// chaosScenario builds the chaos table's base scenario: GST = 2s, a
// fast post-GST network (δ = Δ/10), and the chosen condition applied
// pre-GST.
func chaosScenario(p Protocol, f, ci int, seed int64) Scenario {
	delta := 50 * time.Millisecond
	gst := 2 * time.Second
	gamma := gammaOf(p, delta)
	cond := chaosConditions[ci]
	s := Scenario{
		Name:        fmt.Sprintf("chaos-%s-%s-f%d", cond.name, p, f),
		Protocol:    p,
		F:           f,
		Delta:       delta,
		DeltaActual: delta / 10,
		GST:         gst,
		Duration:    gst + 30*time.Duration(f+1)*gamma,
		Seed:        seed,
	}
	cond.apply(&s)
	return s
}

// measureChaos extracts the post-GST view-synchronization latency.
func measureChaos(res *Result) ChaosResult {
	s := res.Scenario
	out := ChaosResult{Protocol: s.Protocol, F: s.F, N: res.Cfg.N, Decisions: res.DecisionCount()}
	if d, ok := res.Collector.FirstDecisionAfter(res.GST); ok {
		out.Decided = true
		out.SyncLatency = d.At.Sub(res.GST)
	}
	return out
}

// chaosConditionNames lists the chaos table's conditions in column
// order.
func chaosConditionNames() []string {
	return axisLabels(chaosConditions, func(c chaosCondition) string { return c.name })
}

// ChaosTable renders the chaos comparison: every protocol's
// view-synchronization latency (first honest-leader decision after GST,
// in Δ) under partitions healing at GST, pre-GST loss, duplication with
// reordering, and crash-recovery churn.
func ChaosTable(f int, seed int64, opts SweepOptions) *Table {
	g := sweepGrid(gridShape{rows: len(AllProtocols), cols: len(chaosConditions)}, seed, opts,
		func(row, col, _ int) Scenario { return chaosScenario(AllProtocols[row], f, col, 0) })
	t := gridTable(fmt.Sprintf("Chaos: view-synchronization latency after GST (in Δ), n=%d, GST=2s", 3*f+1),
		"protocol", AllProtocols, chaosConditionNames(), func(row, col int) string {
			r := measureChaos(g.result(row, col))
			return orStalled(r.Decided, "%.2fΔ", float64(r.SyncLatency)/float64(50*time.Millisecond))
		})
	t.AddNote("conditions heal at GST: partition (f+1 isolated), 40%% pre-GST loss, 33%% duplication + Δ reorder jitter, f-node crash-recovery churn")
	t.AddNote("the §2 clamp floods withheld pre-GST traffic back at GST+Δ; latency is the first honest-leader decision after GST")
	return t
}

// GapShrinkageResult reports §3.5's two honest-gap trajectories under the
// desynchronization adversary:
//
//   - hg_{f+1} never exceeds Γ (clock bumps always carry f+1 honest
//     contributors — Lemma 5.9's invariant). MaxGapPre/MaxGapSteady and
//     the convergence fields track it.
//   - hg_{2f+1} is what the adversary can blow up before GST (the f
//     blocked laggards); §3.5's epoch-length and boundary-leader tuning
//     brings it back down after GST. MaxWideGapPre/MaxWideGapSteady track
//     it.
type GapShrinkageResult struct {
	Gamma            time.Duration
	MaxGapPre        time.Duration
	MaxGapSteady     time.Duration
	TimeToBelow      time.Duration
	Converged        bool
	MaxWideGapPre    time.Duration
	MaxWideGapSteady time.Duration
}

// GapShrinkage runs the gap-trajectory experiment under the
// desynchronization adversary: Byzantine-assisted QCs bump f+1 honest
// clocks an epoch ahead of the blocked laggards before GST, so
// hg_{f+1, GST} is huge; after GST the mechanisms of §3.5 must bring it
// below Γ and keep it there.
func GapShrinkage(f int, seed int64) GapShrinkageResult {
	s := desyncScenario(ProtoLumiere, f, seed)
	s.Name = "gap-shrinkage"
	s.SampleGaps = true
	res := Run(s)
	out := GapShrinkageResult{Gamma: res.Gamma}
	gstT := res.GST
	steadyFrom := gstT.Add(20 * res.Gamma)
	for _, smp := range res.Gaps.Samples() {
		g := res.Gaps.GapF1(smp)
		wide := res.Gaps.Gap2F1(smp)
		switch {
		case smp.At <= gstT:
			if g > out.MaxGapPre {
				out.MaxGapPre = g
			}
			if wide > out.MaxWideGapPre {
				out.MaxWideGapPre = wide
			}
		case smp.At > steadyFrom:
			if wide > out.MaxWideGapSteady {
				out.MaxWideGapSteady = wide
			}
		}
	}
	if at, ok := res.Gaps.FirstTimeGapF1Below(gstT, res.Gamma); ok {
		out.TimeToBelow = at.Sub(gstT)
		out.Converged = true
		out.MaxGapSteady = res.Gaps.MaxGapF1After(at.Add(10 * res.Gamma))
	}
	return out
}

// AdversarialSuccess runs §3.5's adversarial-success-criterion scenario:
// f Byzantine leaders propose late (ignoring the QC deadline) to keep the
// success criterion alive while degrading progress. Lumiere must still
// converge: honest leaders shrink the gap and decisions keep flowing.
func AdversarialSuccess(f int, seed int64) EventualResult {
	delta := 50 * time.Millisecond
	lag := 3 * delta
	corr := make([]adversary.Corruption, f)
	for i := range corr {
		corr[i] = adversary.Corruption{Node: types.NodeID(i), Behavior: adversary.BehaviorLateProposing, Lag: lag}
	}
	res := Run(Scenario{
		Name:        "adversarial-success",
		Protocol:    ProtoLumiere,
		F:           f,
		Delta:       delta,
		DeltaActual: delta / 10,
		Corruptions: corr,
		Duration:    240 * time.Second,
		Seed:        seed,
	})
	stats := res.Collector.Stats(types.Time(0).Add(60*time.Second), 5)
	return EventualResult{
		Protocol:  ProtoLumiere,
		F:         f,
		N:         res.Cfg.N,
		Fa:        f,
		MaxMsgs:   stats.MaxMsgs,
		MeanMsgs:  stats.MeanMsgs,
		MaxGap:    stats.MaxGap,
		MeanGap:   stats.MeanGap,
		Decisions: stats.Count,
		HeavySync: len(res.Collector.HeavySyncViews(types.Time(0).Add(60 * time.Second))),
	}
}

// DeltaWaitAblation compares heavy-sync counts with and without the Δ-wait
// before epoch-view messages (§3.5's final fix). The race it guards
// against — clocks reaching c_{V(e+1)} with the success-deciding QCs
// still in flight — needs clocks that advance by time rather than bumps
// near the boundary, so the scenario mixes heavy delay jitter with
// late-proposing Byzantine leaders whose QCs arrive at the last moment.
func DeltaWaitAblation(f int, seed int64) (withWait, withoutWait int) {
	delta := 100 * time.Millisecond
	corr := make([]adversary.Corruption, f)
	for i := range corr {
		corr[i] = adversary.Corruption{
			Node:     types.NodeID(3 * i),
			Behavior: adversary.BehaviorLateProposing,
			Lag:      5 * delta,
		}
	}
	scenario := func(disable bool) Scenario {
		return Scenario{
			Name:                 fmt.Sprintf("delta-wait-%v", disable),
			Protocol:             ProtoLumiere,
			F:                    f,
			Delta:                delta,
			Delay:                network.Uniform{Min: time.Millisecond, Max: delta},
			Corruptions:          corr,
			CoreDisableDeltaWait: disable,
			Duration:             240 * time.Second,
			Seed:                 seed,
		}
	}
	results := Sweep([]Scenario{scenario(false), scenario(true)}, SweepOptions{KeepSeeds: true}).Results()
	count := func(res *Result) int {
		return len(res.Collector.HeavySyncViews(types.Time(0).Add(30 * time.Second)))
	}
	return count(results[0]), count(results[1])
}
