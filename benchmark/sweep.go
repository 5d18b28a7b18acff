package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"lumiere/internal/harness"
)

// sim-sweep-eval is the evaluation in miniature: a chaos conformance
// sweep over all six protocols, the attack table and the WAN table, on
// the sweep engine with per-worker arenas. It is the only workload that
// runs the baselines, the adaptive adversary strategies, link-policy
// chains, topologies and clock drift. Sized at ~1.8 s per repetition on a
// 2-core box (48 + 24 + 16 executions).
const (
	sweepChaosCells = 48
	sweepAttackF    = 2
	sweepWANF       = 1
	// sweepSeed fixes the whole scenario matrix — the chaos cells' shapes
	// (n, f, link conditions, durations) and every cell's execution seed —
	// the way the repository pins its tables and FRONTIER.json. Drawn
	// from --seed instead, the matrix is a different workload per seed:
	// shapes moved host time 10 %, allocations 16 % and peak memory 34 %
	// between seeds, and execution seeds alone moved the p86 cell latency
	// 60 %; no bound could tell a regression from a draw. --seed drives
	// the order in which the chaos cells are handed to the worker pool,
	// which is the input the sweep engine's load balance depends on.
	sweepSeed = 42
)

// sweepWorkers sizes the pool for the machine, capped where the sweep's
// 88 executions stop dividing evenly enough to matter.
func sweepWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// chaosScenarios is harness.ChaosSweep(sweepChaosCells, sweepSeed)'s
// matrix — generated chaos scenarios cycled across every protocol, each
// run on its generator seed — in the dispatch order drawn from seed.
// order[j] is the matrix index of the j-th scenario dispatched.
func chaosScenarios(seed int64) (scenarios []harness.Scenario, order []int) {
	order = rand.New(rand.NewSource(seed)).Perm(sweepChaosCells)
	scenarios = make([]harness.Scenario, sweepChaosCells)
	for j, i := range order {
		s := harness.GenChaosScenario(harness.DeriveSeed(sweepSeed, i))
		s.Protocol = harness.AllProtocols[i%len(harness.AllProtocols)]
		s.Name = fmt.Sprintf("chaos-%02d-%s", i, s.Protocol)
		scenarios[j] = s
	}
	return scenarios, order
}

// chaosCell is what is kept of one chaos execution; like
// harness.ChaosSweep, a repetition reduces each Result to its checked
// summary and lets the Result go.
type chaosCell struct {
	events      uint64
	decisions   int
	words       int64
	decided     bool
	syncLatency time.Duration
	problems    []string
}

// sweepRun is one repetition's results.
type sweepRun struct {
	chaos        []chaosCell
	chaosElapsed time.Duration
	attack       *harness.AttackReport
	wan          *harness.WANReport
}

// runSweeps runs the three sweeps. progress, when non-nil, receives each
// finished execution with the sweep it belongs to.
func runSweeps(seed int64, workers int, progress func(sweep string, c *harness.SweepCell)) sweepRun {
	opts := func(sweep string) harness.SweepOptions {
		o := harness.SweepOptions{Workers: workers}
		if progress != nil {
			o.Progress = func(_, _ int, c *harness.SweepCell) { progress(sweep, c) }
		}
		return o
	}
	chaosOpts := opts("chaos")
	chaosOpts.KeepSeeds = true
	scenarios, order := chaosScenarios(seed)
	sr := harness.Sweep(scenarios, chaosOpts)
	run := sweepRun{chaos: make([]chaosCell, len(sr.Cells)), chaosElapsed: sr.Elapsed}
	for j := range sr.Cells {
		res := sr.Cells[j].Result
		d, decided := res.Collector.FirstDecisionAfter(res.GST)
		run.chaos[order[j]] = chaosCell{
			events: res.Events, decisions: res.DecisionCount(), words: res.Collector.WordsTotal(),
			decided: decided, syncLatency: d.At.Sub(res.GST), problems: harness.ConformanceReport(res),
		}
	}
	run.attack = harness.AttackSweep(sweepAttackF, sweepSeed, opts("attack"))
	run.wan = harness.WANSweep(sweepWANF, sweepSeed, opts("wan"))
	return run
}

// cells is the number of table cells a repetition fills.
func (r sweepRun) cells() int { return len(r.chaos) + len(r.attack.Cells) + len(r.wan.Cells) }

// fingerprint is what must repeat exactly between repetitions.
func (r sweepRun) fingerprint() string {
	var b strings.Builder
	for _, c := range r.chaos {
		fmt.Fprintf(&b, "%d %d %d\n", c.events, c.decisions, c.words)
	}
	b.WriteString(r.attack.Table().Render())
	b.WriteString(r.wan.Table().Render())
	return b.String()
}

// measure fills the protocol-quality metrics and the pinned per-cell
// values, and counts failed cells: a conformance problem, or no decision
// after GST under conditions the model obliges the protocol to survive.
func (r sweepRun) measure(o *outcome) (failed int64) {
	var lats []float64
	cell := func(kind string, i int, decided bool, lat time.Duration, problems []string) {
		for _, p := range problems {
			o.problemf("%s cell %d: %s", kind, i, p)
		}
		switch {
		case len(problems) > 0:
			failed++
		case !decided:
			o.problemf("%s cell %d: no decision after GST", kind, i)
			failed++
		default:
			lats = append(lats, inDelta(lat))
		}
	}
	var words, decisions int64
	for i, c := range r.chaos {
		cell("chaos", i, c.decided, c.syncLatency, c.problems)
		words += c.words
		decisions += int64(c.decisions)
		o.pin(fmt.Sprintf("chaos.%02d.decisions", i), float64(c.decisions))
		o.pin(fmt.Sprintf("chaos.%02d.words", i), float64(c.words))
	}
	for i, c := range r.attack.Cells {
		cell("attack", i, c.Decided, c.SyncLatency, nil)
		words += c.TotalWords
		decisions += int64(c.Decisions)
		o.pin(fmt.Sprintf("attack.%02d.decisions", i), float64(c.Decisions))
		o.pin(fmt.Sprintf("attack.%02d.words", i), float64(c.TotalWords))
	}
	for i, c := range r.wan.Cells {
		cell("wan", i, c.Decided && c.Committed > 0, c.SyncLatency, nil)
		o.pin(fmt.Sprintf("wan.%02d.committed", i), float64(c.Committed))
	}
	o.setLatency(summarize(lats))
	if decisions > 0 {
		o.Values["words_per_decision"] = float64(words) / float64(decisions)
	}
	var late int
	for _, l := range lats {
		if l > sloDelta {
			late++
		}
	}
	if len(lats) > 0 {
		o.Values["service.slo_miss_share"] = float64(late) / float64(len(lats))
		o.Values["service.stall_max"] = lats[len(lats)-1] // summarize sorted lats
	}
	for _, n := range pinnedMetrics {
		o.pin(n, o.Values[n])
	}
	return failed
}

func runSweepEval(opt options) (*outcome, error) {
	if opt.Trace {
		return traceSweepEval(opt)
	}
	o := newOutcome()
	workers := sweepWorkers()

	// Set-up: every chaos cell cut to 1 ms of simulated time on fresh
	// worker arenas — construction of each protocol's stack at each
	// shape, and none of the executions.
	cut, _ := chaosScenarios(opt.Seed)
	for i := range cut {
		cut[i].Duration = time.Millisecond
	}
	setups := setupSamples(func() { harness.Sweep(cut, harness.SweepOptions{Workers: workers, KeepSeeds: true}) })
	o.Values["setup_s"] = median(setups)
	o.Notes = append(o.Notes, spreadNote("setup_s", "s", setups))

	t0 := time.Now()
	ref := runSweeps(opt.Seed, workers, nil)
	o.Values["runtime.warmup_s"] = time.Since(t0).Seconds()
	want := ref.fingerprint()

	var walls, cpus, allocs []float64
	reps := repetitions(opt.Seconds, func(i int) {
		runtime.GC()
		m := startMeter()
		run := runSweeps(opt.Seed, workers, nil)
		wall, cpu, al := m.stop()
		walls, cpus, allocs = append(walls, wall), append(cpus, cpu), append(allocs, al)
		if run.fingerprint() != want {
			o.problemf("repetition %d is not a function of the scenario matrix: its tables differ from the first run's", i)
			o.Failed += int64(run.cells())
		}
	})
	o.Attempted = int64(reps * ref.cells())
	o.Failed += int64(reps) * ref.measure(o)
	o.Values["wall_s"] = median(walls)
	o.Values["runtime.cpu_s"] = median(cpus)
	o.Values["allocs_m"] = median(allocs)
	o.Notes = append(o.Notes, spreadNote("wall_s", "s", walls), spreadNote("cpu", "s", cpus), spreadNote("allocs_m", "1e6", allocs))
	o.notef("sweep: %d workers, %d cells per repetition (chaos %d, attack %d, wan %d)",
		workers, ref.cells(), len(ref.chaos), len(ref.attack.Cells), len(ref.wan.Cells))
	return o, nil
}

// traceSweepEval is the traced run: the sweep engine reports each
// execution's wall time through SweepOptions.Progress, which gives the
// per-protocol cell cost and how well the pool was used. There are no
// boundary spans inside the cells.
func traceSweepEval(opt options) (*outcome, error) {
	o := newOutcome()
	workers := sweepWorkers()

	t0 := time.Now()
	ref := runSweeps(opt.Seed, workers, nil)
	o.Values["runtime.warmup_s"] = time.Since(t0).Seconds()
	want := ref.fingerprint()

	type cost struct {
		n int
		s float64
	}
	var plain, plainCPU, traced []float64
	var byProto map[harness.Protocol]*cost // chaos cells, last repetition
	var attack cost
	var busy, capacity float64
	reps := repetitions(opt.Seconds, func(i int) {
		runtime.GC()
		m := startMeter()
		runSweeps(opt.Seed, workers, nil)
		wall, cpu, _ := m.stop()
		plain, plainCPU = append(plain, wall), append(plainCPU, cpu)

		byProto, attack, busy = map[harness.Protocol]*cost{}, cost{}, 0
		runtime.GC()
		t := time.Now()
		run := runSweeps(opt.Seed, workers, func(sweep string, c *harness.SweepCell) {
			d := c.Elapsed.Seconds()
			busy += d
			switch sweep {
			case "attack":
				attack.n++
				attack.s += d
			case "chaos":
				pc := byProto[c.Scenario.Protocol]
				if pc == nil {
					pc = &cost{}
					byProto[c.Scenario.Protocol] = pc
				}
				pc.n++
				pc.s += d
			}
		})
		traced = append(traced, time.Since(t).Seconds())
		capacity = float64(workers) * (run.chaosElapsed + run.attack.Elapsed + run.wan.Elapsed).Seconds()
		if run.fingerprint() != want {
			o.problemf("traced repetition %d: its tables differ from the untraced run's", i)
			o.Failed += int64(run.cells())
		}
	})
	o.Attempted = int64(reps * ref.cells())
	o.Failed += int64(reps) * ref.measure(o)

	mean := func(c *cost) float64 {
		if c == nil || c.n == 0 {
			return 0
		}
		return c.s / float64(c.n)
	}
	o.Values["harness.sweep.cells"] = float64(ref.cells())
	o.Values["harness.sweep.worker_util"] = busy / capacity
	o.Values["harness.sweep.tail_idle_s"] = capacity - busy
	o.Values["harness.cell_s.lumiere"] = mean(byProto[harness.ProtoLumiere])
	o.Values["harness.cell_s.basic-lumiere"] = mean(byProto[harness.ProtoBasic])
	o.Values["baseline.cell_s.lp22"] = mean(byProto[harness.ProtoLP22])
	o.Values["baseline.cell_s.fever"] = mean(byProto[harness.ProtoFever])
	o.Values["baseline.cell_s.cogsworth"] = mean(byProto[harness.ProtoCogsworth])
	o.Values["baseline.cell_s.nk20"] = mean(byProto[harness.ProtoNK20])
	o.Values["adversary.attack_cell_s"] = mean(&attack)
	o.Values["service.throughput_per_s"] = float64(ref.cells()) / median(plain)
	o.Values["runtime.cpu_s"] = median(plainCPU)
	o.Values["runtime.trace_overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	o.Notes = append(o.Notes, spreadNote("untraced", "s", plain), spreadNote("traced", "s", traced))
	o.notef("sweep: %d workers; per-execution wall time from SweepOptions.Progress", workers)
	return o, nil
}
