// Benchmarks regenerating every table and figure of the paper as
// testing.B targets (see DESIGN.md §4 for the experiment index). Each
// benchmark runs the corresponding experiment and reports its headline
// quantities via b.ReportMetric:
//
//	go test -bench=. -benchmem
//
// Absolute values are simulator-relative; the shapes (scaling exponents,
// who wins, crossovers) are the reproduction targets recorded in
// EXPERIMENTS.md. cmd/lumiere-bench renders the same experiments as
// paper-style tables. These benchmarks are for measuring by hand; the
// repository's perf gate is benchmark/ (BENCHMARK.json).
package lumiere_test

import (
	"runtime"
	"testing"
	"time"

	"lumiere"
	"lumiere/internal/adversary"
	"lumiere/internal/crypto"
	"lumiere/internal/harness"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/redteam"
	"lumiere/internal/sim"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
)

const benchSeed = 42

// benchWorstCase reports W_{GST+Δ} (messages) and worst-case latency.
func benchWorstCase(b *testing.B, p harness.Protocol, f int) {
	b.Helper()
	var msgs int64
	var lat time.Duration
	for i := 0; i < b.N; i++ {
		r := harness.WorstCase(p, f, benchSeed, harness.SweepOptions{})
		msgs, lat = r.Msgs, r.Latency
	}
	b.ReportMetric(float64(msgs), "msgs/window")
	b.ReportMetric(lat.Seconds()*1000, "latency_ms")
}

// BenchmarkTable1WorstCaseComm regenerates Table 1 row "Worst-case
// Communication" (and latency alongside): max over the implemented
// adversary strategies of honest messages between GST+Δ and the next
// honest-leader decision.
func BenchmarkTable1WorstCaseComm(b *testing.B) {
	for _, p := range harness.AllProtocols {
		for _, f := range []int{1, 3, 5} {
			b.Run(string(p)+"/f="+itoa(f), func(b *testing.B) { benchWorstCase(b, p, f) })
		}
	}
}

// BenchmarkTable1WorstCaseLatency isolates the latency row at the largest
// bench size.
func BenchmarkTable1WorstCaseLatency(b *testing.B) {
	for _, p := range harness.AllProtocols {
		b.Run(string(p), func(b *testing.B) { benchWorstCase(b, p, 5) })
	}
}

// benchEventual reports steady-state per-decision-window maxima.
func benchEventual(b *testing.B, p harness.Protocol, f, fa int) {
	b.Helper()
	var r harness.EventualResult
	for i := 0; i < b.N; i++ {
		r = harness.Eventual(p, f, fa, benchSeed)
	}
	b.ReportMetric(r.MaxMsgs, "max_msgs/decision")
	b.ReportMetric(r.MeanMsgs, "mean_msgs/decision")
	b.ReportMetric(r.MaxGap.Seconds()*1000, "max_gap_ms")
	b.ReportMetric(float64(r.HeavySync), "heavy_syncs")
}

// BenchmarkTable1EventualComm regenerates Table 1 row "Eventual
// Worst-case Communication": f_a sweep at n = 16.
func BenchmarkTable1EventualComm(b *testing.B) {
	for _, p := range harness.AllProtocols {
		for _, fa := range []int{0, 1, 3, 5} {
			b.Run(string(p)+"/fa="+itoa(fa), func(b *testing.B) { benchEventual(b, p, 5, fa) })
		}
	}
}

// BenchmarkTable1EventualLatency regenerates Table 1 row "Eventual
// Worst-case Latency" at f_a = 1.
func BenchmarkTable1EventualLatency(b *testing.B) {
	for _, p := range harness.AllProtocols {
		b.Run(string(p), func(b *testing.B) { benchEventual(b, p, 5, 1) })
	}
}

// benchFigure1 reports the single-fault stall in units of Γ.
func benchFigure1(b *testing.B, p harness.Protocol, f int) {
	b.Helper()
	var r harness.Figure1Result
	for i := 0; i < b.N; i++ {
		r = harness.Figure1(p, f, benchSeed, false)
	}
	b.ReportMetric(r.StallGammas, "stall_gammas")
	b.ReportMetric(r.MaxStall.Seconds()*1000, "stall_ms")
}

// BenchmarkFigure1LP22Timeline regenerates Figure 1's subject: LP22's
// stall after fast QCs grows with n.
func BenchmarkFigure1LP22Timeline(b *testing.B) {
	for _, f := range []int{1, 3, 5, 10} {
		b.Run("f="+itoa(f), func(b *testing.B) { benchFigure1(b, harness.ProtoLP22, f) })
	}
}

// BenchmarkFigure1LumiereTimeline is the counterpoint: Lumiere's stall is
// O(Γ) independent of n.
func BenchmarkFigure1LumiereTimeline(b *testing.B) {
	for _, f := range []int{1, 3, 5, 10} {
		b.Run("f="+itoa(f), func(b *testing.B) { benchFigure1(b, harness.ProtoLumiere, f) })
	}
}

// BenchmarkSmoothResponsiveness regenerates Theorem 1.1(3)'s δ-sweep:
// mean decision gap vs actual delay at f_a = 0.
func BenchmarkSmoothResponsiveness(b *testing.B) {
	for _, d := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		b.Run(d.String(), func(b *testing.B) {
			var pts []harness.ResponsivenessPoint
			for i := 0; i < b.N; i++ {
				pts = harness.SmoothResponsiveness(harness.ProtoLumiere, 3, []time.Duration{d}, benchSeed)
			}
			b.ReportMetric(pts[0].MeanGap.Seconds()*1000, "mean_gap_ms")
			b.ReportMetric(float64(pts[0].MeanGap)/float64(d), "gap_over_delta")
		})
	}
}

// BenchmarkHeavySyncCount regenerates Theorem 1.1(4)'s mechanism: heavy
// Θ(n²) synchronizations after warmup (Lumiere: expected O(1); LP22 and
// Basic Lumiere: one per epoch forever).
func BenchmarkHeavySyncCount(b *testing.B) {
	for _, p := range []harness.Protocol{harness.ProtoLP22, harness.ProtoBasic, harness.ProtoLumiere} {
		b.Run(string(p), func(b *testing.B) {
			var heavy int
			var epochs float64
			for i := 0; i < b.N; i++ {
				heavy, epochs = harness.HeavySyncCount(p, 3, 1, 240*time.Second, benchSeed)
			}
			b.ReportMetric(float64(heavy), "heavy_syncs")
			b.ReportMetric(epochs, "epochs_elapsed")
		})
	}
}

// BenchmarkChaosTable regenerates the chaos comparison cell by cell:
// per (condition, protocol) view-synchronization latency after GST
// under partition-heal-at-GST, pre-GST loss, duplication + reorder
// jitter, and crash-recovery churn, one cond=/proto= sub-benchmark per
// cell.
func BenchmarkChaosTable(b *testing.B) {
	for ci, cond := range harness.ChaosConditionNames() {
		ci, cond := ci, cond
		for _, p := range harness.AllProtocols {
			p := p
			b.Run("cond="+cond+"/proto="+string(p), func(b *testing.B) {
				// One warm arena per cell benchmark: the reported
				// allocs/op and bytes/op are the steady per-cell cost a
				// sweep worker pays, not the one-time construction.
				arena := harness.NewArena()
				r := harness.ChaosIn(arena, p, 1, ci, benchSeed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r = harness.ChaosIn(arena, p, 1, ci, benchSeed)
				}
				b.StopTimer()
				if !r.Decided {
					b.Fatalf("%s under %s: no decision after GST", p, cond)
				}
				b.ReportMetric(float64(r.SyncLatency)/float64(50*time.Millisecond), "sync_delta")
			})
		}
	}
}

// BenchmarkAttackTable regenerates the adaptive-attack comparison cell
// by cell: per (strategy, protocol) post-GST view-synchronization
// latency and W_GST in words under the vote-then-silence desync,
// next-leader omission, GST-straddle and complexity-saturation
// strategies, one attack=/proto= sub-benchmark per cell.
func BenchmarkAttackTable(b *testing.B) {
	for si, spec := range harness.AttackSpecs() {
		si, name := si, spec.Name
		for _, p := range harness.AllProtocols {
			p := p
			b.Run("attack="+name+"/proto="+string(p), func(b *testing.B) {
				// Warm arena, as in BenchmarkChaosTable: per-cell cost
				// with setup amortized away.
				arena := harness.NewArena()
				c := harness.AttackIn(arena, p, 1, si, benchSeed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c = harness.AttackIn(arena, p, 1, si, benchSeed)
				}
				b.StopTimer()
				if !c.Decided {
					b.Fatalf("%s under %s: no decision after GST", p, name)
				}
				b.ReportMetric(float64(c.SyncLatency)/float64(harness.AttackDelta), "sync_delta")
				b.ReportMetric(float64(c.WindowWords), "wgst_words")
			})
		}
	}
}

// BenchmarkTopologyTable regenerates the WAN graceful-degradation table
// cell by cell: per (deployment preset, protocol) post-GST
// view-synchronization latency and W_GST in words with the preset's
// regional link matrix as the delay model (pre-GST chaos riding on it).
// One preset=/proto= sub-benchmark per cell; -benchmem's allocs/op
// covers the topology LinkPolicy's zero-allocation verdict path.
func BenchmarkTopologyTable(b *testing.B) {
	for _, preset := range harness.WANPresets {
		preset := preset
		for _, p := range harness.WANProtocols {
			p := p
			b.Run("preset="+preset+"/proto="+string(p), func(b *testing.B) {
				// Warm arena, as in BenchmarkChaosTable: per-cell cost
				// with setup amortized away.
				arena := harness.NewArena()
				c := harness.WANSyncIn(arena, preset, p, 1, benchSeed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c = harness.WANSyncIn(arena, preset, p, 1, benchSeed)
				}
				b.StopTimer()
				if !c.Decided {
					b.Fatalf("%s on %s: no decision after GST", p, preset)
				}
				b.ReportMetric(float64(c.SyncLatency)/float64(harness.AttackDelta), "sync_delta")
				b.ReportMetric(float64(c.WindowWords), "wgst_words")
			})
		}
	}
}

// BenchmarkLargeNWords regenerates a shortened massive-n scaling cell
// per (protocol, n): the LargeNWordsTable scenario cut to 30 simulated
// seconds — long enough for several LP22 epoch boundaries at these
// sizes — reporting the worst post-warmup decision window in words/n.
// One proto=/n= sub-benchmark per cell; -benchmem's allocs/op covers
// the multicast-broadcast + bitset-quorum memory behavior at these n.
func BenchmarkLargeNWords(b *testing.B) {
	for _, p := range []harness.Protocol{harness.ProtoLP22, harness.ProtoLumiere} {
		for _, n := range []int{128, 256} {
			p, n := p, n
			b.Run("proto="+string(p)+"/n="+itoa3(n), func(b *testing.B) {
				var maxWordsPerN float64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := harness.LargeNScenario(p, n, benchSeed)
					s.Duration = 30 * time.Second
					res := harness.Run(s)
					warm := types.Time(0).Add(s.Duration / 4)
					stats := res.Collector.Stats(warm, 0)
					if res.Aborted || stats.Count == 0 {
						b.Fatalf("%s n=%d: stalled", p, n)
					}
					maxWordsPerN = stats.MaxWords / float64(n)
				}
				b.ReportMetric(maxWordsPerN, "max_words_per_n")
			})
		}
	}
}

// BenchmarkThroughputTable regenerates representative cells of the SMR
// throughput table: an open-loop population (10⁶ logical clients, 64B
// payload pad) offering load commands/sec into chained HotStuff at
// batch 256, reporting committed-command throughput, p99 commit latency
// and words per committed command, one proto=/load= sub-benchmark per
// cell; -benchmem's allocs/op covers the allocation-free injection path.
func BenchmarkThroughputTable(b *testing.B) {
	for _, p := range []harness.Protocol{harness.ProtoLumiere, harness.ProtoCogsworth, harness.ProtoLP22} {
		for _, load := range []int64{300, 1500} {
			p, load := p, load
			b.Run("proto="+string(p)+"/load="+itoa3(int(load)), func(b *testing.B) {
				delta := 50 * time.Millisecond
				s := lumiere.Scenario{
					Protocol:        p,
					F:               1,
					Delta:           delta,
					DeltaActual:     delta / 10,
					Duration:        15 * time.Second,
					Seed:            benchSeed,
					SMR:             true,
					SMRBatchSize:    256,
					NewStateMachine: func() statemachine.StateMachine { return statemachine.NewCounter() },
					Workload: &lumiere.WorkloadConfig{
						Clients:    1_000_000,
						Rate:       load,
						PayloadPad: 64,
					},
				}
				// Warm arena, as in BenchmarkChaosTable: per-cell cost
				// with setup amortized away.
				arena := lumiere.NewArena()
				res := lumiere.RunIn(arena, s)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res = lumiere.RunIn(arena, s)
				}
				b.StopTimer()
				st := res.Collector.CommitLatencyStats(res.GST.Add(3 * time.Second))
				if st.Count == 0 {
					b.Fatalf("%s at %d/s: no commits after warmup", p, load)
				}
				b.ReportMetric(st.PerSec, "committed/sec")
				b.ReportMetric(st.P99.Seconds()*1000, "p99_ms")
				b.ReportMetric(float64(res.Collector.WordsTotal())/float64(res.Collector.CommitCount()), "words/cmd")
			})
		}
	}
}

// BenchmarkRedTeamGrid regenerates the adversarial-search smoke cells:
// a full grid search over redteam.SmokeSpace(1) maximizing post-GST
// view-synchronization latency, per protocol. -benchmem's allocs/op
// covers the search engine's evaluation path (candidate legalization,
// scenario construction, arena-backed sweep, cache bookkeeping); Workers
// is pinned to 1 so the allocation count stays deterministic.
func BenchmarkRedTeamGrid(b *testing.B) {
	for _, p := range []harness.Protocol{harness.ProtoLP22, harness.ProtoLumiere} {
		p := p
		b.Run("proto="+string(p), func(b *testing.B) {
			sp := redteam.SmokeSpace(1)
			var best redteam.Evaluated
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := redteam.NewEvaluator(p, 1, redteam.ObjSyncLatency, benchSeed)
				best = redteam.Best(redteam.Grid(sp, e, 1))
			}
			if !best.Decided {
				b.Fatalf("%s: red-team grid worst case %s did not decide", p, best.Candidate)
			}
			b.ReportMetric(best.Value, "worst_sync_delta")
		})
	}
}

// BenchmarkHonestGapShrinkage regenerates §3.5's gap-trajectory claim.
func BenchmarkHonestGapShrinkage(b *testing.B) {
	var r harness.GapShrinkageResult
	for i := 0; i < b.N; i++ {
		r = harness.GapShrinkage(3, benchSeed)
	}
	b.ReportMetric(r.MaxGapPre.Seconds()*1000, "pre_gst_gap_ms")
	b.ReportMetric(r.TimeToBelow.Seconds()*1000, "time_to_below_gamma_ms")
	b.ReportMetric(r.MaxGapSteady.Seconds()*1000, "steady_gap_ms")
}

// BenchmarkAdversarialSuccessCriterion regenerates §3.5's
// adversarial-success scenario: late-proposing Byzantine leaders keep the
// success criterion alive; Lumiere keeps deciding.
func BenchmarkAdversarialSuccessCriterion(b *testing.B) {
	var r harness.EventualResult
	for i := 0; i < b.N; i++ {
		r = harness.AdversarialSuccess(3, benchSeed)
	}
	b.ReportMetric(float64(r.Decisions), "decisions")
	b.ReportMetric(r.MaxGap.Seconds()*1000, "max_gap_ms")
	b.ReportMetric(float64(r.HeavySync), "heavy_syncs")
}

// BenchmarkDeltaWaitAblation regenerates the Δ-wait design-choice
// ablation of §3.5.
func BenchmarkDeltaWaitAblation(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		with, without = harness.DeltaWaitAblation(3, benchSeed)
	}
	b.ReportMetric(float64(with), "heavy_with_wait")
	b.ReportMetric(float64(without), "heavy_without_wait")
}

// BenchmarkSMREndToEnd measures full chained-HotStuff SMR throughput
// under each pacemaker with one crashed replica (E2E-smr).
func BenchmarkSMREndToEnd(b *testing.B) {
	for _, p := range []harness.Protocol{harness.ProtoLumiere, harness.ProtoFever, harness.ProtoLP22, harness.ProtoCogsworth} {
		b.Run(string(p), func(b *testing.B) {
			var perSec float64
			for i := 0; i < b.N; i++ {
				res := lumiere.Run(lumiere.Scenario{
					Protocol:     p,
					F:            2,
					Delta:        100 * time.Millisecond,
					DeltaActual:  5 * time.Millisecond,
					Corruptions:  lumiere.CrashFirst(1),
					Duration:     60 * time.Second,
					Seed:         benchSeed,
					SMR:          true,
					WorkloadRate: 500,
				})
				stats := res.Collector.Stats(types.Time(0).Add(10*time.Second), 5)
				perSec = stats.DecisionsPerSecSimed
			}
			b.ReportMetric(perSec, "decisions/virt_sec")
		})
	}
}

// table1EventualRender runs the Table 1 eventual sweep at the given
// worker count and returns the rendered output (the sweep engine's
// byte-identical determinism surface).
func table1EventualRender(workers int) (string, time.Duration) {
	start := time.Now()
	comm, lat := lumiere.Table1Eventual(1, []int{0, 1}, benchSeed, lumiere.SweepOptions{Workers: workers})
	return comm.Render() + lat.Render(), time.Since(start)
}

// TestTable1SweepSpeedup times the Table 1 eventual sweep with the serial
// driver (1 worker) against the full worker pool and asserts both that
// the rendered tables are byte-identical and — on a machine with at
// least 4 cores — that the parallel sweep improves wall-clock by ≥2×.
func TestTable1SweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep in -short mode")
	}
	serialOut, serialDur := table1EventualRender(1)
	parallelOut, parallelDur := table1EventualRender(runtime.NumCPU())
	t.Logf("serial %v, parallel %v on %d CPUs (speedup %.2fx)",
		serialDur, parallelDur, runtime.NumCPU(), float64(serialDur)/float64(parallelDur))
	if serialOut != parallelOut {
		t.Fatalf("sweep output differs between 1 and %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			runtime.NumCPU(), serialOut, parallelOut)
	}
	if runtime.NumCPU() >= 4 && parallelDur > serialDur/2 {
		// One retry absorbs transient machine load before declaring a
		// scaling regression.
		serialOut2, serialDur2 := table1EventualRender(1)
		parallelOut2, parallelDur2 := table1EventualRender(runtime.NumCPU())
		t.Logf("retry: serial %v, parallel %v (speedup %.2fx)",
			serialDur2, parallelDur2, float64(serialDur2)/float64(parallelDur2))
		if serialOut2 != parallelOut2 {
			t.Fatal("sweep output differs between worker counts on retry")
		}
		if parallelDur2 > serialDur2/2 {
			t.Errorf("parallel sweep not ≥2x faster than serial on %d CPUs (%v vs %v, retry %v vs %v)",
				runtime.NumCPU(), parallelDur, serialDur, parallelDur2, serialDur2)
		}
	}
}

// BenchmarkSweepWorkers measures the sweep engine's scaling: the Table 1
// eventual sweep at increasing worker counts.
func BenchmarkSweepWorkers(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run("workers="+itoa(w), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				_, dur := table1EventualRender(w)
				total += dur
			}
			b.ReportMetric(total.Seconds()*1000/float64(b.N), "sweep_ms")
		})
	}
}

// BenchmarkConformanceSweep measures the generated conformance corpus as
// a throughput target: scenarios checked per wall second.
func BenchmarkConformanceSweep(b *testing.B) {
	const cells = 12
	scenarios := make([]lumiere.Scenario, cells)
	for i := range scenarios {
		s := lumiere.GenScenario(lumiere.DeriveSeed(benchSeed, i))
		s.Protocol = lumiere.AllProtocols[i%len(lumiere.AllProtocols)]
		scenarios[i] = s
	}
	for i := 0; i < b.N; i++ {
		sr := lumiere.RunSweep(scenarios, lumiere.SweepOptions{KeepSeeds: true})
		for _, cell := range sr.Cells {
			if problems := lumiere.ConformanceReport(cell.Result); len(problems) != 0 {
				b.Fatalf("%s: %v", cell.Scenario.Name, problems)
			}
		}
		b.ReportMetric(float64(cells)/sr.Elapsed.Seconds(), "scenarios/sec")
	}
}

// BenchmarkAllocsPerSend measures the simulated send hot path across the
// scheduler, network and metrics layers: one op is an n=31 broadcast plus
// the delivery of all its messages, observed by a streaming Collector.
// allocs/op is the gate (the pre-arena implementation spent 3 allocations
// per point-to-point send, ~93/op here); sends/op contextualizes it. The
// lossy and duplicating variants gate the chaos link-policy paths on the
// same budget: dropping or copying a message must not allocate either.
func BenchmarkAllocsPerSend(b *testing.B) {
	base := network.LinkPolicy(network.DelayLink{P: network.Fixed{D: time.Millisecond}})
	variants := []struct {
		name string
		link network.LinkPolicy
	}{
		{"fixed", base},
		{"lossy", adversary.Lossy{Base: base, P: 0.3}},
		{"duplicating", adversary.Duplicating{Base: base, P: 0.5, Jitter: time.Millisecond}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := types.NewConfig(10, 100*time.Millisecond) // n = 31
			s := sim.New(benchSeed)
			// GST at 1h keeps lossy drops in the pre-GST regime: the
			// clamp reschedules them to the bound instead of omitting.
			net := network.NewNetLink(s, cfg, types.Time(0).Add(time.Hour), v.link)
			collector := metrics.NewCollector(nil)
			net.Observe(collector)
			var ep network.Endpoint
			for i := 0; i < cfg.N; i++ {
				e := net.Attach(types.NodeID(i), network.HandlerFunc(func(types.NodeID, msg.Message) {}))
				if i == 0 {
					ep = e
				}
			}
			m := &msg.ViewMsg{V: 1}
			for i := 0; i < 50; i++ { // warm the event arena
				ep.Broadcast(m)
				s.RunFor(10 * time.Millisecond)
			}
			start := collector.HonestSends()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ep.Broadcast(m)
				s.RunFor(10 * time.Millisecond)
			}
			b.StopTimer()
			b.ReportMetric(float64(collector.HonestSends()-start)/float64(b.N), "sends/op")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator performance:
// simulated protocol events executed per wall second (n = 31 Lumiere).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lumiere.Run(lumiere.Scenario{
			Protocol:    lumiere.ProtoLumiere,
			F:           10,
			Delta:       50 * time.Millisecond,
			DeltaActual: 5 * time.Millisecond,
			Duration:    20 * time.Second,
			Seed:        benchSeed,
		})
		b.ReportMetric(float64(res.Events), "events/op")
	}
}

// BenchmarkCryptoAggregate measures certificate assembly cost (2f+1
// signatures, n = 31) for both suites.
func BenchmarkCryptoAggregate(b *testing.B) {
	data := msg.ViewStatement(7)
	run := func(b *testing.B, suite crypto.Suite) {
		sigs := make([]crypto.Signature, 21)
		for i := range sigs {
			sigs[i] = suite.SignerFor(types.NodeID(i)).Sign(data)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agg, err := suite.Aggregate(data, sigs)
			if err != nil {
				b.Fatal(err)
			}
			if err := suite.VerifyAggregate(data, agg, 21); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sim-hmac", func(b *testing.B) { run(b, crypto.NewSimSuite(31, 1)) })
	b.Run("ed25519", func(b *testing.B) { run(b, crypto.NewEd25519Suite(31, 1)) })
}

func itoa(i int) string {
	return string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

// itoa3 formats sizes that need more than itoa's two digits.
func itoa3(i int) string {
	s := ""
	for ; i > 0; i /= 10 {
		s = string(rune('0'+i%10)) + s
	}
	return s
}
