package eval

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/network"
	"lumiere/internal/types"
	"lumiere/internal/viz"
)

// This file defines the experiments that regenerate every table and figure
// of the paper (Evaluation in evaluation.go lists them; EXPERIMENTS.md
// holds the paper-vs-measured records). Every experiment is
// split into a scenario builder and a pure measure over the resulting
// *Result, so each table driver runs its full protocol × axis grid as a
// single Sweep (harness.SweepGrid) fanned across the worker pool;
// SweepGrid derives the per-cell seeds with DeriveSeed, making the
// rendered tables byte-identical at any worker count.

// worstCaseResult is one protocol/size point of the worst-case
// experiments.
type worstCaseResult struct {
	Msgs    int64
	Latency time.Duration
	Decided bool
}

// worstStrategy is one adversary strategy of the worst-case experiment: a
// scenario builder plus the measure extracting the strategy's headline
// quantities from the finished run.
type worstStrategy struct {
	scenario func(p harness.Protocol, f int, seed int64) harness.Scenario
	measure  func(*harness.Result) worstCaseResult
}

// worstStrategies lists the implemented adversary strategies, in the
// order below. table1WorstCase reports, per cell, §2's worst-case communication
// W_{GST+Δ} and latency t*_GST − GST as the maximum over them:
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
var worstStrategies = []worstStrategy{
	{worstCaseCrashScenario, measureWorstCase},
	{desyncScenario, measureWorstCase},
	{steadyScenario(false), measureSteady},
	{steadyScenario(true), measureSteady},
}

// reduceWorstCase combines one result per strategy (result(i) ran
// worstStrategies[i]) into the strategy maximum.
func reduceWorstCase(result func(strategy int) *harness.Result) worstCaseResult {
	var out worstCaseResult
	var maxLat time.Duration
	var first worstCaseResult
	for i, st := range worstStrategies {
		c := st.measure(result(i))
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
func steadyScenario(crash bool) func(p harness.Protocol, f int, seed int64) harness.Scenario {
	return func(p harness.Protocol, f int, seed int64) harness.Scenario {
		delta := 50 * time.Millisecond
		gamma := p.Gamma(delta)
		corr := adversary.NonProposingSet(consecutive(f)...)
		if crash {
			corr = adversary.CrashFirst(f)
		}
		return harness.Scenario{
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
func measureSteady(res *harness.Result) worstCaseResult {
	s := res.Scenario
	gamma := s.Protocol.Gamma(s.Delta)
	stats := res.Collector.Stats(types.Time(0).Add(20*time.Duration(s.F+1)*gamma), 2)
	return worstCaseResult{Msgs: int64(stats.MaxMsgs), Latency: stats.MaxGap, Decided: stats.Count > 0}
}

func consecutive(k int) []types.NodeID {
	out := make([]types.NodeID, k)
	for i := range out {
		out[i] = types.NodeID(i)
	}
	return out
}

// worstCaseCrashScenario builds the crash strategy's scenario.
func worstCaseCrashScenario(p harness.Protocol, f int, seed int64) harness.Scenario {
	delta := 50 * time.Millisecond
	gst := 1 * time.Second
	gamma := p.Gamma(delta)
	return harness.Scenario{
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
func desyncScenario(p harness.Protocol, f int, seed int64) harness.Scenario {
	delta := 50 * time.Millisecond
	fast := delta / 50
	gamma := p.Gamma(delta)
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
	return harness.Scenario{
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
func measureWorstCase(res *harness.Result) worstCaseResult {
	var out worstCaseResult
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

// table1WorstCase regenerates the "Worst-case Communication" and
// "Worst-case Latency" rows of Table 1 as an empirical n-sweep: the
// protocol × f × strategy grid runs as one sweep, and all of a cell's
// strategies share the cell's seed (the strategy, not the randomness, is
// the variable).
func table1WorstCase(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	fs := sc.Fs
	g := harness.SweepGrid(harness.GridShape{Rows: len(harness.AllProtocols), Cols: len(fs), Runs: len(worstStrategies), SharedSeed: true}, seed, opts,
		func(row, col, run int) harness.Scenario {
			return worstStrategies[run].scenario(harness.AllProtocols[row], fs[col], 0)
		})
	worst := func(row, col int) worstCaseResult {
		return reduceWorstCase(func(run int) *harness.Result { return g.Cell(row, col, run).Result })
	}
	cols := viz.AxisLabels(fs, nLabel)
	comm := viz.GridTable("Table 1 (worst-case communication): messages from GST+Δ to first honest-leader decision",
		"protocol", harness.AllProtocols, cols, func(row, col int) string {
			r := worst(row, col)
			return viz.OrStalled(r.Decided, "%d", r.Msgs)
		})
	lat := viz.GridTable("Table 1 (worst-case latency): GST to first honest-leader decision",
		"protocol", harness.AllProtocols, cols, func(row, col int) string {
			r := worst(row, col)
			return viz.OrStalled(r.Decided, "%.2fΔ", float64(r.Latency)/float64(50*time.Millisecond))
		})
	comm.AddNote("paper: Cogsworth O(n³), NK20/LP22/Fever/Lumiere O(n²)")
	lat.AddNote("paper: Cogsworth O(n²Δ), NK20/LP22/Lumiere O(nΔ), Fever O(f_aΔ+δ)")
	return []Output{{Name: "table1_worst_comm", Table: comm}, {Name: "table1_worst_latency", Table: lat}}, ""
}

// nLabel and faLabel head the columns of the n-sweep (axis value f,
// n = 3f+1) and f_a-sweep tables.
func nLabel(f int) string   { return fmt.Sprintf("n=%d", 3*f+1) }
func faLabel(fa int) string { return fmt.Sprintf("fa=%d", fa) }

// eventualResult is one protocol point of the steady-state experiments.
type eventualResult struct {
	N         int
	MaxMsgs   float64
	MaxWords  float64
	MaxGap    time.Duration
	MeanGap   time.Duration
	Decisions int
	HeavySync int
}

// eventualScenario builds the steady-state scenario: GST = 0, fixed
// actual delay δ = Δ/10, f_a crashed processors, a long run.
func eventualScenario(p harness.Protocol, f, fa int, seed int64) harness.Scenario {
	delta := 50 * time.Millisecond
	return harness.Scenario{
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
func measureEventual(res *harness.Result) eventualResult {
	warm := types.Time(0).Add(res.Scenario.Duration / 4)
	stats := res.Collector.Stats(warm, 5)
	return eventualResult{
		N:         res.Cfg.N,
		MaxMsgs:   stats.MaxMsgs,
		MaxWords:  stats.MaxWords,
		MaxGap:    stats.MaxGap,
		MeanGap:   stats.MeanGap,
		Decisions: stats.Count,
		HeavySync: len(res.Collector.HeavySyncViews(warm)),
	}
}

// eventualGrid runs the steady-state scenario over AllProtocols × cols
// as one grid (scenario(p, col) builds a cell) and measures every cell
// once, so each table over the grid reads the same runs.
func eventualGrid(cols int, scenario func(p harness.Protocol, col int) harness.Scenario, seed int64, opts harness.SweepOptions) [][]eventualResult {
	g := harness.SweepGrid(harness.GridShape{Rows: len(harness.AllProtocols), Cols: cols}, seed, opts,
		func(row, col, _ int) harness.Scenario { return scenario(harness.AllProtocols[row], col) })
	out := make([][]eventualResult, len(harness.AllProtocols))
	for row := range out {
		for col := 0; col < cols; col++ {
			out[row] = append(out[row], measureEventual(g.Result(row, col)))
		}
	}
	return out
}

// eventualTable renders one measure of an eventualGrid, a cell with no
// decision after warmup as "stalled".
func eventualTable(title string, cols []string, res [][]eventualResult, cell func(r *eventualResult) string) *viz.Table {
	return viz.GridTable(title, "protocol", harness.AllProtocols, cols, func(row, col int) string {
		if r := &res[row][col]; r.Decisions > 0 {
			return cell(r)
		}
		return "stalled"
	})
}

// table1Eventual regenerates the "Eventual Worst-case Communication" and
// "Eventual Worst-case Latency" rows of Table 1 as an f_a-sweep at fixed
// n = 3f+1, and, from the same runs, the communication row in words:
// Lumiere and Fever grow linearly in f_a (O(n·f_a + n) words); LP22 and
// NK20 pay their Θ(n²) synchronizations regardless of how many
// processors actually failed.
func table1Eventual(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	f, fas := sc.EventualF, sc.FAs
	res := eventualGrid(len(fas), func(p harness.Protocol, col int) harness.Scenario { return eventualScenario(p, f, fas[col], 0) }, seed, opts)
	cols := viz.AxisLabels(fas, faLabel)
	comm := eventualTable(fmt.Sprintf("Table 1 (eventual worst-case communication), n=%d: max messages between consecutive decisions", 3*f+1),
		cols, res, func(r *eventualResult) string { return fmt.Sprintf("%.0f", r.MaxMsgs) })
	lat := eventualTable(fmt.Sprintf("Table 1 (eventual worst-case latency), n=%d: max gap between consecutive decisions (in Δ)", 3*f+1),
		cols, res, func(r *eventualResult) string {
			return fmt.Sprintf("%.2fΔ", float64(r.MaxGap)/float64(50*time.Millisecond))
		})
	words := eventualTable(fmt.Sprintf("Eventual worst-case communication in words, n=%d: max words between consecutive decisions", 3*f+1),
		cols, res, func(r *eventualResult) string { return fmt.Sprintf("%.0f", r.MaxWords) })
	comm.AddNote("paper: Cogsworth O(n+n·f_a²), NK20 O(n²), LP22 O(n²), Fever/Lumiere O(n·f_a+n)")
	lat.AddNote("paper: Cogsworth O(f_a²Δ+δ), NK20/LP22 O(nΔ), Fever/Lumiere O(f_aΔ+δ)")
	words.AddNote("paper: Lumiere/Fever O(n·f_a+n) words — growing with actual faults; LP22/NK20 O(n²) regardless of f_a")
	return []Output{
		{Name: "table1_eventual_comm", Table: comm},
		{Name: "table1_eventual_latency", Table: lat},
		{Key: "EventualWordsTable", Name: "eventual_words", Table: words},
	}, ""
}

// eventualScaling runs the n-sweep at f_a = 1 for every protocol — the
// per-decision communication scaling (Lumiere/Fever O(n) vs LP22/NK20
// O(n²)) — and renders it three ways from the same runs: messages per
// decision window, the same as a log-scale ASCII chart (the visual
// counterpart of the Table 1 communication rows), and words per window,
// whose rows divided by n stay ~flat for Lumiere/Fever and grow for
// LP22/NK20.
func eventualScaling(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	fs, fa := sc.Fs, 1
	res := eventualGrid(len(fs), func(p harness.Protocol, col int) harness.Scenario { return eventualScenario(p, fs[col], fa, 0) }, seed, opts)
	cols := viz.AxisLabels(fs, nLabel)
	msgs := eventualTable(fmt.Sprintf("Eventual communication scaling (f_a=%d): max messages between consecutive decisions", fa),
		cols, res, func(r *eventualResult) string { return fmt.Sprintf("%.0f", r.MaxMsgs) })
	words := eventualTable(fmt.Sprintf("Eventual word-complexity scaling (f_a=%d): max words between consecutive decisions", fa),
		cols, res, func(r *eventualResult) string { return fmt.Sprintf("%.0f", r.MaxWords) })
	words.AddNote("divide a row by n: ~flat for Lumiere/Fever (words linear in n), growing for LP22/NK20 (quadratic)")
	var series []viz.Series
	for row, p := range harness.AllProtocols {
		s := viz.Series{Name: string(p)}
		for _, r := range res[row] {
			if r.Decisions == 0 {
				continue
			}
			s.X = append(s.X, float64(r.N))
			s.Y = append(s.Y, r.MaxMsgs)
		}
		series = append(series, s)
	}
	return []Output{
		{Name: "eventual_scaling", Table: msgs},
		{Key: "EventualScalingPlot", Text: viz.Plot("max messages per decision window vs n (log y)", series, 64, 16, true)},
		{Key: "WordScalingTable", Name: "word_scaling", Table: words},
	}, ""
}

// figure1Result reproduces Figure 1: after a burst of fast QCs, a faulty
// leader stalls LP22 for almost (f+1)Γ because clocks are never bumped;
// Lumiere bounds the stall by ~Γ per faulty leader.
type figure1Result struct {
	StallGammas float64
	Decisions   int
}

// figure1Scenario builds the Figure 1 scenario for one protocol and size:
// a fast network (δ = Δ/20) with a single non-proposing Byzantine
// processor.
func figure1Scenario(p harness.Protocol, f int, seed int64) harness.Scenario {
	delta := 50 * time.Millisecond
	return harness.Scenario{
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
func measureFigure1(res *harness.Result) figure1Result {
	stats := res.Collector.Stats(types.Time(0).Add(30*time.Second), 2)
	return figure1Result{StallGammas: float64(stats.MaxGap) / float64(res.Gamma), Decisions: stats.Count}
}

// figure1Protocols is the Figure 1 comparison set, in presentation order.
var figure1Protocols = []harness.Protocol{harness.ProtoLP22, harness.ProtoNK20, harness.ProtoFever, harness.ProtoBasic, harness.ProtoLumiere}

// figure1Table renders the Figure 1 comparison as an n-sweep: the stall
// caused by one Byzantine processor, in units of each protocol's Γ.
func figure1Table(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	g := harness.SweepGrid(harness.GridShape{Rows: len(figure1Protocols), Cols: len(sc.Fs)}, seed, opts,
		func(row, col, _ int) harness.Scenario { return figure1Scenario(figure1Protocols[row], sc.Fs[col], 0) })
	t := viz.GridTable("Figure 1: max stall caused by a single Byzantine leader after fast QCs (in units of Γ)",
		"protocol", figure1Protocols, viz.AxisLabels(sc.Fs, nLabel), func(row, col int) string {
			r := measureFigure1(g.Result(row, col))
			return viz.OrStalled(r.Decisions > 0, "%.2fΓ", r.StallGammas)
		})
	t.AddNote("paper (Fig. 1): LP22's stall grows to almost (f+1)Γ = O(nΔ); Lumiere/Fever stay O(Γ) = O(Δ) per faulty leader")
	return one("figure1_stalls", t), ""
}

// responsivenessScenario builds one δ point of the responsiveness sweep
// (Δ fixed at 100ms, f_a = 0).
func responsivenessScenario(p harness.Protocol, f int, d time.Duration, seed int64) harness.Scenario {
	return harness.Scenario{
		Name:        fmt.Sprintf("resp-%s-%v", p, d),
		Protocol:    p,
		F:           f,
		Delta:       100 * time.Millisecond,
		DeltaActual: d,
		Duration:    120 * time.Second,
		Seed:        seed,
	}
}

// responsivenessTable renders the δ-sweep at f = sc.F for every
// protocol: the steady-state mean decision gap after a 30s warmup.
func responsivenessTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	f := sc.F
	deltas := []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	g := harness.SweepGrid(harness.GridShape{Rows: len(harness.AllProtocols), Cols: len(deltas)}, seed, opts,
		func(row, col, _ int) harness.Scenario {
			return responsivenessScenario(harness.AllProtocols[row], f, deltas[col], 0)
		})
	t := viz.GridTable(fmt.Sprintf("Smooth optimistic responsiveness (f_a=0, n=%d, Δ=100ms): mean decision gap vs actual delay δ", 3*f+1),
		"protocol", harness.AllProtocols, viz.AxisLabels(deltas, time.Duration.String), func(row, col int) string {
			stats := g.Result(row, col).Collector.Stats(types.Time(0).Add(30*time.Second), 5)
			return stats.MeanGap.Round(time.Millisecond / 10).String()
		})
	t.AddNote("responsive protocols track ~3δ (x=3 network round-trips); clock-driven entry pins the gap near Γ")
	return one("responsiveness", t), ""
}

// measureHeavySync counts Theorem 1.1(4)'s mechanism: the number of heavy
// Θ(n²) epoch synchronizations started after the warmup, plus the number
// of epochs the run traversed. Lumiere retires heavy syncs once an epoch
// satisfies the success criterion; LP22 and Basic Lumiere pay one per
// epoch forever.
func measureHeavySync(res *harness.Result) (heavy int, epochsElapsed float64) {
	s := res.Scenario
	warm := types.Time(0).Add(s.Duration / 4)
	heavy = len(res.Collector.HeavySyncViews(warm))
	decs := res.Collector.Decisions()
	var views float64
	if len(decs) > 0 {
		views = float64(decs[len(decs)-1].View)
	}
	return heavy, views / float64(s.Protocol.EpochLen(res.Cfg))
}

// heavySyncProtocols is the heavy-sync comparison set.
var heavySyncProtocols = []harness.Protocol{harness.ProtoLP22, harness.ProtoBasic, harness.ProtoLumiere}

// heavySyncTable renders the heavy-synchronization comparison at f =
// sc.F: per fault mix f_a ∈ {0, 1}, a heavy-sync count column and an
// epochs column.
func heavySyncTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	f := sc.F
	fas := []int{0, 1}
	g := harness.SweepGrid(harness.GridShape{Rows: len(heavySyncProtocols), Cols: len(fas)}, seed, opts,
		func(row, col, _ int) harness.Scenario {
			return eventualScenario(heavySyncProtocols[row], f, fas[col], 0)
		})
	t := viz.GridTable(fmt.Sprintf("Heavy (Θ(n²)) epoch synchronizations after warmup, n=%d, 240s run", 3*f+1),
		"protocol", heavySyncProtocols, []string{"fa=0 heavy", "fa=0 epochs", "fa=1 heavy", "fa=1 epochs"},
		func(row, col int) string {
			heavy, epochs := measureHeavySync(g.Result(row, col/2))
			if col%2 == 0 {
				return fmt.Sprintf("%d", heavy)
			}
			return fmt.Sprintf("%.0f", epochs)
		})
	t.AddNote("paper: Lumiere performs an expected constant number of heavy syncs after GST; LP22/Basic one per epoch")
	return one("heavy_syncs", t), ""
}

// chaosCondition is one named fault condition of the chaos table: a
// transform applied to the base chaos scenario.
type chaosCondition struct {
	name  string
	apply func(s *harness.Scenario)
}

// chaosConditions lists the chaos table's columns, each a pre-GST fault
// regime the §2 model admits beyond pure delay. All heal at (or by
// shortly after) GST, so the measured quantity is how fast each
// protocol resynchronizes views once the model stabilizes.
var chaosConditions = []chaosCondition{
	{"partition-heal", func(s *harness.Scenario) {
		// Split-brain: an island of f+1 processors is cut off until
		// GST, so no side holds a quorum of synchronized processors;
		// the clamp floods the withheld traffic back at GST+Δ.
		island := make([]types.NodeID, s.F+1)
		for i := range island {
			island[i] = types.NodeID(i)
		}
		s.Partitions = [][]types.NodeID{island}
	}},
	{"loss-40", func(s *harness.Scenario) {
		// 40% of pre-GST traffic is lost (delivered at GST+Δ).
		s.Loss = 0.4
		s.LossUntil = s.GST
	}},
	{"dup-reorder", func(s *harness.Scenario) {
		// Every third message is duplicated and delays jitter by up
		// to Δ, reordering traffic for the whole run.
		s.Duplication = 0.33
		s.ReorderJitter = s.Delta
	}},
	{"churn", func(s *harness.Scenario) {
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

// ChaosScenarios returns protocol p's row of the chaos table at f, one
// scenario per condition in column order: GST = 2s, a fast post-GST
// network (δ = Δ/10), the condition applied pre-GST, and the given
// seed. RareSync's golden pins, which no table runs, are built on it.
func ChaosScenarios(p harness.Protocol, f int, seed int64) []harness.Scenario {
	delta := 50 * time.Millisecond
	gst := 2 * time.Second
	out := make([]harness.Scenario, len(chaosConditions))
	for i, cond := range chaosConditions {
		out[i] = harness.Scenario{
			Name:        fmt.Sprintf("chaos-%s-%s-f%d", cond.name, p, f),
			Protocol:    p,
			F:           f,
			Delta:       delta,
			DeltaActual: delta / 10,
			GST:         gst,
			Duration:    gst + 30*time.Duration(f+1)*p.Gamma(delta),
			Seed:        seed,
		}
		cond.apply(&out[i])
	}
	return out
}

// chaosConditionNames lists the chaos table's conditions in column
// order.
func chaosConditionNames() []string {
	return viz.AxisLabels(chaosConditions, func(c chaosCondition) string { return c.name })
}

// chaosTable renders the chaos comparison: every protocol's
// view-synchronization latency (first honest-leader decision after GST,
// in Δ) under partitions healing at GST, pre-GST loss, duplication with
// reordering, and crash-recovery churn, at f = sc.ChaosF.
func chaosTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	f := sc.ChaosF
	g := harness.SweepGrid(harness.GridShape{Rows: len(harness.AllProtocols), Cols: len(chaosConditions)}, seed, opts,
		func(row, col, _ int) harness.Scenario { return ChaosScenarios(harness.AllProtocols[row], f, 0)[col] })
	t := viz.GridTable(fmt.Sprintf("Chaos: view-synchronization latency after GST (in Δ), n=%d, GST=2s", 3*f+1),
		"protocol", harness.AllProtocols, chaosConditionNames(), func(row, col int) string {
			res := g.Result(row, col)
			d, ok := res.Collector.FirstDecisionAfter(res.GST)
			return viz.OrStalled(ok, "%.2fΔ", float64(d.At.Sub(res.GST))/float64(50*time.Millisecond))
		})
	t.AddNote("conditions heal at GST: partition (f+1 isolated), 40%% pre-GST loss, 33%% duplication + Δ reorder jitter, f-node crash-recovery churn")
	t.AddNote("the §2 clamp floods withheld pre-GST traffic back at GST+Δ; latency is the first honest-leader decision after GST")
	return one("chaos_table", t), ""
}

// gapShrinkageResult reports §3.5's two honest-gap trajectories under the
// desynchronization adversary:
//
//   - hg_{f+1} never exceeds Γ (clock bumps always carry f+1 honest
//     contributors — Lemma 5.9's invariant). MaxGapPre/MaxGapSteady and
//     the convergence fields track it.
//   - hg_{2f+1} is what the adversary can blow up before GST (the f
//     blocked laggards); §3.5's epoch-length and boundary-leader tuning
//     brings it back down after GST. MaxWideGapPre/MaxWideGapSteady track
//     it.
type gapShrinkageResult struct {
	Gamma            time.Duration
	MaxGapPre        time.Duration
	MaxGapSteady     time.Duration
	TimeToBelow      time.Duration
	Converged        bool
	MaxWideGapPre    time.Duration
	MaxWideGapSteady time.Duration
}

// gapShrinkage runs the gap-trajectory experiment under the
// desynchronization adversary: Byzantine-assisted QCs bump f+1 honest
// clocks an epoch ahead of the blocked laggards before GST, so
// hg_{f+1, GST} is huge; after GST the mechanisms of §3.5 must bring it
// below Γ and keep it there.
func gapShrinkage(f int, seed int64) gapShrinkageResult {
	s := desyncScenario(harness.ProtoLumiere, f, seed)
	s.Name = "gap-shrinkage"
	s.SampleGaps = true
	res := harness.Run(s)
	out := gapShrinkageResult{Gamma: res.Gamma}
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

// adversarialSuccess runs §3.5's adversarial-success-criterion scenario:
// f Byzantine leaders propose late (ignoring the QC deadline) to keep the
// success criterion alive while degrading progress. Lumiere must still
// converge: honest leaders shrink the gap and decisions keep flowing.
func adversarialSuccess(f int, seed int64) eventualResult {
	delta := 50 * time.Millisecond
	lag := 3 * delta
	corr := make([]adversary.Corruption, f)
	for i := range corr {
		corr[i] = adversary.Corruption{Node: types.NodeID(i), Behavior: adversary.BehaviorLateProposing, Lag: lag}
	}
	res := harness.Run(harness.Scenario{
		Name:        "adversarial-success",
		Protocol:    harness.ProtoLumiere,
		F:           f,
		Delta:       delta,
		DeltaActual: delta / 10,
		Corruptions: corr,
		Duration:    240 * time.Second,
		Seed:        seed,
	})
	stats := res.Collector.Stats(types.Time(0).Add(60*time.Second), 5)
	return eventualResult{
		N:         res.Cfg.N,
		MaxMsgs:   stats.MaxMsgs,
		MaxGap:    stats.MaxGap,
		MeanGap:   stats.MeanGap,
		Decisions: stats.Count,
		HeavySync: len(res.Collector.HeavySyncViews(types.Time(0).Add(60 * time.Second))),
	}
}

// deltaWaitAblation compares heavy-sync counts with and without the Δ-wait
// before epoch-view messages (§3.5's final fix). The race it guards
// against — clocks reaching c_{V(e+1)} with the success-deciding QCs
// still in flight — needs clocks that advance by time rather than bumps
// near the boundary, so the scenario mixes heavy delay jitter with
// late-proposing Byzantine leaders whose QCs arrive at the last moment.
func deltaWaitAblation(f int, seed int64, opts harness.SweepOptions) (withWait, withoutWait int) {
	delta := 100 * time.Millisecond
	corr := make([]adversary.Corruption, f)
	for i := range corr {
		corr[i] = adversary.Corruption{
			Node:     types.NodeID(3 * i),
			Behavior: adversary.BehaviorLateProposing,
			Lag:      5 * delta,
		}
	}
	scenario := func(disable bool) harness.Scenario {
		return harness.Scenario{
			Name:                 fmt.Sprintf("delta-wait-%v", disable),
			Protocol:             harness.ProtoLumiere,
			F:                    f,
			Delta:                delta,
			Delay:                network.Uniform{Min: time.Millisecond, Max: delta},
			Corruptions:          corr,
			CoreDisableDeltaWait: disable,
			Duration:             240 * time.Second,
			Seed:                 seed,
		}
	}
	results := harness.Sweep([]harness.Scenario{scenario(false), scenario(true)}, opts).Results()
	count := func(res *harness.Result) int {
		return len(res.Collector.HeavySyncViews(types.Time(0).Add(30 * time.Second)))
	}
	return count(results[0]), count(results[1])
}

// lumiereRow renders a one-row table of a Lumiere-only §3.5 result.
func lumiereRow(title string, header []string, cells ...string) *viz.Table {
	t := &viz.Table{Title: title, Header: append([]string{"protocol"}, header...)}
	t.AddRow(append([]string{string(harness.ProtoLumiere)}, cells...)...)
	return t
}

// gapShrinkageTable renders gapShrinkage at f = sc.F.
func gapShrinkageTable(sc Scale, seed int64, _ harness.SweepOptions) ([]Output, string) {
	r := gapShrinkage(sc.F, seed)
	below := "never"
	if r.Converged {
		below = r.TimeToBelow.String()
	}
	t := lumiereRow(fmt.Sprintf("§3.5 honest-gap shrinkage under the desync adversary (n=%d)", 3*sc.F+1),
		[]string{"Γ", "pre-GST hg_{f+1}", "pre-GST hg_{2f+1}", "hg_{f+1} ≤ Γ after GST", "steady hg_{f+1}", "steady hg_{2f+1}"},
		r.Gamma.String(), r.MaxGapPre.String(), r.MaxWideGapPre.String(), below, r.MaxGapSteady.String(), r.MaxWideGapSteady.String())
	t.AddNote("pre-GST hg_{f+1} never exceeds Γ (Lemma 5.9); steady = from 10Γ after convergence (hg_{f+1}) or from GST+20Γ (hg_{2f+1})")
	return one("gap_shrinkage", t), ""
}

// adversarialSuccessTable renders adversarialSuccess at f = sc.F.
func adversarialSuccessTable(sc Scale, seed int64, _ harness.SweepOptions) ([]Output, string) {
	r := adversarialSuccess(sc.F, seed)
	t := lumiereRow(fmt.Sprintf("§3.5 adversarial success criterion (n=%d, f late-proposing Byzantine leaders)", 3*sc.F+1),
		[]string{"decisions", "mean gap", "max gap", "heavy syncs"},
		fmt.Sprintf("%d", r.Decisions), r.MeanGap.Round(time.Millisecond).String(),
		r.MaxGap.Round(time.Millisecond).String(), fmt.Sprintf("%d", r.HeavySync))
	t.AddNote("after a 60s warmup: honest leaders must shrink the gap while the late proposals keep the success criterion alive")
	return one("adversarial_success", t), ""
}

// deltaWaitTable renders deltaWaitAblation at f = sc.F.
func deltaWaitTable(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string) {
	with, without := deltaWaitAblation(sc.F, seed, opts)
	t := lumiereRow(fmt.Sprintf("§3.5 Δ-wait ablation (n=%d, fast QC bursts): heavy syncs after a 30s warmup", 3*sc.F+1),
		[]string{"with Δ-wait", "without Δ-wait"}, fmt.Sprintf("%d", with), fmt.Sprintf("%d", without))
	return one("delta_wait_ablation", t), ""
}
