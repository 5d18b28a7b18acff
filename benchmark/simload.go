package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"lumiere/internal/harness"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// simSpec is one single-cell simulator workload: a scenario run through
// harness.RunIn, repeated in one arena.
type simSpec struct {
	name     string
	scenario func(seed int64) harness.Scenario
	// commitLatency selects submit→commit latency (SMR) over
	// inter-decision gaps (view synchronization alone) as the latency.
	commitLatency bool
}

// sloDelta is the latency limit, in Δ, a unit of service must meet.
const sloDelta = 20

// commitWarmup is excluded from commit-latency statistics.
const commitWarmup = 3 * time.Second

// sim-sync-n61: n below crypto's memo threshold (memoMinN = 64), so every
// certificate is re-MAC'd at every recipient and HMAC dominates host
// time. Sized at ~1.6 s of host time per repetition on a 2-core box.
var simSyncN61 = simSpec{
	name: "sim-sync-n61",
	scenario: func(seed int64) harness.Scenario {
		return harness.Scenario{
			Name: "sim-sync-n61", Protocol: harness.ProtoLumiere, N: 61, F: 20,
			Delta: bigDelta, DeltaActual: smallDelta, Duration: 20 * time.Second, Seed: seed,
		}
	},
}

// sim-sync-n1024: the same crypto API on its memo-hit path, plus the
// scheduler's multicast events, bitset quorums, sparse metrics and GC.
// LargeNScenario's 300 s horizon is cut to 2 s (~2 s host per repetition).
var simSyncN1024 = simSpec{
	name: "sim-sync-n1024",
	scenario: func(seed int64) harness.Scenario {
		s := harness.LargeNScenario(harness.ProtoLumiere, 1024, seed)
		s.Name, s.Duration = "sim-sync-n1024", 2*time.Second
		return s
	},
}

// sim-smr-n4: chained HotStuff, the KV state machine, the workload
// engine and commit recording dominate; crypto is small at n=4.
var simSMRN4 = simSpec{
	name:          "sim-smr-n4",
	commitLatency: true,
	scenario: func(seed int64) harness.Scenario {
		return harness.Scenario{
			Name: "sim-smr-n4", Protocol: harness.ProtoLumiere, N: 4, F: 1,
			Delta: bigDelta, DeltaActual: smallDelta, Duration: 12 * time.Second, Seed: seed,
			SMR: true, SMRBatchSize: 256,
			Workload: &workload.Config{Rate: 6000, Clients: 1_000_000, PayloadPad: 64},
		}
	},
}

// inDelta converts a duration to multiples of Δ.
func inDelta(d time.Duration) float64 { return float64(d) / float64(bigDelta) }

// decisionGaps returns the gaps between consecutive honest-leader
// decisions, in Δ.
func decisionGaps(c *metrics.Collector) []float64 {
	ds := c.Decisions()
	gaps := make([]float64, 0, len(ds))
	for i := 1; i < len(ds); i++ {
		gaps = append(gaps, inDelta(ds[i].At.Sub(ds[i-1].At)))
	}
	return gaps
}

// pinnedMetrics are the end-to-end metrics that are exact functions of
// (scenario, seed) on the simulator.
var pinnedMetrics = []string{"words_per_decision", "latency_p50", "latency_tail", "latency_mean"}

// simFingerprint is what must repeat exactly between repetitions of one
// (scenario, seed), and what golden.json pins at seed 42.
type simFingerprint struct {
	Events    uint64
	Decisions int
	Words     int64
	Commits   int64
}

func fingerprint(res *harness.Result) simFingerprint {
	return simFingerprint{
		Events:    res.Events,
		Decisions: res.DecisionCount(),
		Words:     res.Collector.WordsTotal(),
		Commits:   res.Collector.CommitCount(),
	}
}

// simServiceMetrics fills the protocol-quality metrics of one simulated
// execution: the three latency figures, words per decision, and the
// service.* layer metrics.
func simServiceMetrics(o *outcome, spec simSpec, res *harness.Result) {
	gaps := decisionGaps(res.Collector)
	var lat latencySummary
	if spec.commitLatency {
		st := res.Collector.CommitLatencyStats(types.Time(0).Add(commitWarmup))
		lat = latencySummary{N: st.Count, P50: inDelta(st.P50), Tail: inDelta(st.P99), Mean: inDelta(st.Mean), TailPct: 99}
		o.Values["service.throughput_per_s"] = st.PerSec
	} else {
		lat = summarize(append([]float64(nil), gaps...))
		o.Values["service.throughput_per_s"] = float64(res.DecisionCount()) / res.Scenario.Duration.Seconds()
	}
	o.setLatency(lat)
	if d := res.DecisionCount(); d > 0 {
		o.Values["words_per_decision"] = float64(res.Collector.WordsTotal()) / float64(d)
	}
	var late int
	var longest float64
	for _, g := range gaps {
		if g > sloDelta {
			late++
		}
		if g > longest {
			longest = g
		}
	}
	if len(gaps) > 0 {
		o.Values["service.slo_miss_share"] = float64(late) / float64(len(gaps))
	}
	o.Values["service.stall_max"] = longest
}

// setLatency records the three end-to-end latency figures (in Δ) and
// how the tail was chosen.
func (o *outcome) setLatency(l latencySummary) {
	o.Values["latency_p50"] = l.P50
	o.Values["latency_tail"] = l.Tail
	o.Values["latency_mean"] = l.Mean
	o.Values["service.tail_pct"] = l.TailPct
	o.Values["service.samples"] = float64(l.N)
	o.notef("latency: %d samples, tail = p%.1f", l.N, l.TailPct)
}

// checkSimResult records what makes one simulated execution a failure.
func checkSimResult(o *outcome, what string, res *harness.Result) bool {
	ok := true
	if res.Aborted {
		o.problemf("%s: aborted on its event budget", what)
		ok = false
	}
	if len(res.Violations) > 0 {
		o.problemf("%s: %d invariant violations, first: %s", what, len(res.Violations), res.Violations[0])
		ok = false
	}
	if res.DecisionCount() == 0 {
		o.problemf("%s: no decision", what)
		ok = false
	}
	return ok
}

// setupSamples times fn until it has at least five samples and 0.3 s of
// them (at most 200), so that sub-millisecond set-ups still give a
// steady median.
func setupSamples(fn func()) []float64 {
	var samples []float64
	var total time.Duration
	for i := 0; i < 5 || (i < 200 && total < 300*time.Millisecond); i++ {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		total += d
		samples = append(samples, d.Seconds())
	}
	return samples
}

// repetitions runs rep until it has run at least three times and for
// seconds in total.
func repetitions(seconds float64, rep func(i int)) int {
	start := time.Now()
	i := 0
	for ; i < 3 || time.Since(start).Seconds() < seconds; i++ {
		rep(i)
	}
	return i
}

// spreadNote renders a median with its min–max spread.
func spreadNote(name, unit string, vs []float64) string {
	lo, hi := minMax(vs)
	return fmt.Sprintf("%-10s median %.6g %s over %d repetitions (min %.6g, max %.6g)", name, median(vs), unit, len(vs), lo, hi)
}

func runSimCell(spec simSpec, opt options) (*outcome, error) {
	if opt.Trace {
		return traceSimCell(spec, opt)
	}
	o := newOutcome()
	s := spec.scenario(opt.Seed)

	// Set-up: a fresh arena and the scenario cut to 1 ms of simulated
	// time — construction of every layer, key generation and replica
	// boot, and none of the steady state.
	cut := s
	cut.Duration = time.Millisecond
	setups := setupSamples(func() { harness.RunIn(harness.NewArena(), cut) })
	o.Values["setup_s"] = median(setups)
	o.Notes = append(o.Notes, spreadNote("setup_s", "s", setups))

	arena := harness.NewArena()
	t0 := time.Now()
	ref := harness.RunIn(arena, s)
	o.Values["runtime.warmup_s"] = time.Since(t0).Seconds()
	checkSimResult(o, "warm-up repetition", ref)
	want := fingerprint(ref)

	var walls, cpus, allocs []float64
	o.Attempted = int64(repetitions(opt.Seconds, func(i int) {
		runtime.GC()
		m := startMeter()
		res := harness.RunIn(arena, s)
		wall, cpu, al := m.stop()
		walls, cpus, allocs = append(walls, wall), append(cpus, cpu), append(allocs, al)
		ok := checkSimResult(o, fmt.Sprintf("repetition %d", i), res)
		if got := fingerprint(res); got != want {
			o.problemf("repetition %d is not a function of (scenario, seed): %+v, first run %+v", i, got, want)
			ok = false
		}
		if !ok {
			o.Failed++
		}
	}))
	o.Values["wall_s"] = median(walls)
	o.Values["runtime.cpu_s"] = median(cpus)
	o.Values["allocs_m"] = median(allocs)
	o.Notes = append(o.Notes, spreadNote("wall_s", "s", walls), spreadNote("cpu", "s", cpus), spreadNote("allocs_m", "1e6", allocs))
	simServiceMetrics(o, spec, ref)
	o.pin("events", float64(want.Events))
	o.pin("decisions", float64(want.Decisions))
	o.pin("words", float64(want.Words))
	o.pin("commits", float64(want.Commits))
	for _, n := range pinnedMetrics {
		o.pin(n, o.Values[n])
	}
	o.notef("sim: %d events, %d decisions, %d words, %d commits per repetition", want.Events, want.Decisions, want.Words, want.Commits)
	return o, nil
}

// syncKinds are the view-synchronization message kinds Lumiere's
// pacemaker sends.
var syncKinds = []msg.Kind{msg.KindView, msg.KindVC, msg.KindEpochView, msg.KindEC, msg.KindTC}

// coreMetrics fills the core.* counters from the collectors (one in the
// simulator, one per TCP node) and the replicas' final views.
func coreMetrics(o *outcome, cols []*metrics.Collector, finalViews []types.View) {
	var sync int64
	heavy := make(map[types.View]bool)
	for _, c := range cols {
		for _, k := range syncKinds {
			sync += c.KindCount(k)
		}
		for _, v := range c.HeavySyncViews(0) {
			heavy[v] = true
		}
	}
	o.Values["core.sync_msgs"] = float64(sync)
	o.Values["core.heavy_sync_views"] = float64(len(heavy))
	var live []int
	for _, v := range finalViews {
		if v != types.NoView {
			live = append(live, int(v))
		}
	}
	if len(live) > 0 {
		sort.Ints(live)
		o.Values["core.final_view_spread"] = float64(live[len(live)-1] - live[0])
	}
}

// traceSimCell is the traced run of a single-cell workload: untraced
// harness.RunIn repetitions alternate with repetitions of the assembled,
// decorated stack, which must reproduce the harness's execution exactly.
func traceSimCell(spec simSpec, opt options) (*outcome, error) {
	o := newOutcome()
	s := spec.scenario(opt.Seed)
	arena := harness.NewArena()
	t0 := time.Now()
	ref := harness.RunIn(arena, s)
	o.Values["runtime.warmup_s"] = time.Since(t0).Seconds()
	checkSimResult(o, "reference run", ref)

	var plain, plainCPU, traced []float64
	var last *assembled
	var runErr error
	o.Attempted = int64(repetitions(opt.Seconds, func(i int) {
		if runErr != nil {
			return
		}
		runtime.GC()
		m := startMeter()
		harness.RunIn(arena, s)
		wall, cpu, _ := m.stop()
		plain, plainCPU = append(plain, wall), append(plainCPU, cpu)

		runtime.GC()
		t := time.Now()
		a, err := runAssembled(s)
		if err != nil {
			runErr = err
			return
		}
		traced = append(traced, time.Since(t).Seconds())
		if bad := a.faithful(ref); len(bad) > 0 {
			o.Problems = append(o.Problems, bad...)
			o.Failed++
		}
		last = a
	}))
	if runErr != nil {
		return nil, runErr
	}

	rec := last.rec
	simServiceMetrics(o, spec, ref)
	spanMetrics(o, rec, false)
	o.Values["sim.self_s"] = rec.selfS(spRoot)
	o.Values["sim.events"] = float64(last.events)
	o.Values["sim.scheduled"] = float64(last.scheduled)
	o.Values["sim.max_pending"] = float64(last.maxPend)
	o.Values["sim.events_per_s"] = float64(ref.Events) / median(plain)
	o.Values["network.link.dropped"] = float64(last.link.dropped)
	o.Values["network.link.duplicated"] = float64(last.link.duplicated)
	o.Values["network.omitted"] = float64(last.omitted)
	o.Values["crypto.verify_agg.failed"] = float64(last.suite.failed)
	o.Values["crypto.verify_agg.per_cert"] = last.suite.perCert()
	o.Values["workload.submitted"] = float64(last.submitted)
	o.Values["hotstuff.blocks_committed"] = float64(last.blocks)
	if last.blocks > 0 {
		o.Values["hotstuff.cmds_per_block"] = float64(last.cmds) / float64(last.blocks)
	}
	coreMetrics(o, []*metrics.Collector{last.collector}, last.finalViews)
	o.Values["runtime.trace_overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	o.Values["runtime.cpu_s"] = median(plainCPU)
	if d := ref.DecisionCount(); d > 0 {
		o.Values["runtime.cpu_ms_per_decision"] = 1e3 * median(plainCPU) / float64(d)
	}
	o.Notes = append(o.Notes, spreadNote("untraced", "s", plain), spreadNote("traced", "s", traced))
	o.Notes = append(o.Notes, rec.accounting()...)

	simKernels(o, s.N, s.F)
	if path, err := writeSpans(fmt.Sprintf("%s-seed%d", spec.name, opt.Seed), rec); err != nil {
		o.notef("spans not written: %v", err)
	} else {
		o.notef("first %d spans written to %s", len(rec.retained), path)
	}
	return o, nil
}

// spanMetrics copies the recorder's aggregates into the per-layer metric
// names. On a TCP node the endpoint is the nettcp transport, so its
// spans are nettcp.send rather than network.send.
func spanMetrics(o *outcome, rec *recorder, tcp bool) {
	for _, n := range []spanName{spSign, spVerify, spAggregate, spVerifyAgg, spLink, spOnSend,
		spDeliver, spCoreHandle, spCoreTimer, spViewcoreHandle, spHotstuffHandle, spApply} {
		o.Values[spanNames[n]+".calls"] = rec.calls(n)
		o.Values[spanNames[n]+".self_s"] = rec.selfS(n)
	}
	// Timer callbacks and pacemaker notifications are entries into the
	// engine like Handle; their time belongs to the engine's self time.
	o.Values["viewcore.handle.self_s"] += rec.selfS(spViewcoreTimer)
	o.Values["hotstuff.handle.self_s"] += rec.selfS(spHotstuffTimer)
	engine := "viewcore.handle.self_s"
	if rec.stats[spHotstuffHandle].Calls > 0 {
		engine = "hotstuff.handle.self_s"
	}
	o.Values[engine] += rec.selfS(spDriver)
	o.Values["metrics.record_commit.self_s"] = rec.selfS(spRecordCommit)
	o.Values["workload.submit.self_s"] = rec.selfS(spSubmit)
	o.Values["harness.boot.self_s"] = rec.selfS(spBoot)
	sends := rec.selfS(spSend) + rec.selfS(spBroadcast)
	if tcp {
		o.Values["nettcp.send.calls"] = rec.calls(spSend) + rec.calls(spBroadcast)
		o.Values["nettcp.send.self_s"] = sends
	} else {
		o.Values["network.send.calls"] = rec.calls(spSend)
		o.Values["network.broadcast.calls"] = rec.calls(spBroadcast)
		o.Values["network.send.self_s"] = sends
	}
}
