// Package lumiere is a complete implementation of "Lumiere: Making
// Optimal BFT for Partial Synchrony Practical" (Lewis-Pye, Malkhi, Naor,
// Nayak — PODC 2024): an optimistically responsive Byzantine View
// Synchronization protocol with O(n²) worst-case communication, O(nΔ)
// worst-case latency, smooth optimistic responsiveness, and eventual
// worst-case communication linear in the number of actual faults.
//
// The repository contains, from scratch on the standard library:
//
//   - the Lumiere pacemaker (full §4 protocol and Basic Lumiere §3.4);
//   - every baseline it is compared against: LP22, Fever, Cogsworth and
//     NK20;
//   - the underlying view-based protocol ((⋄1)/(⋄2) of §2) and a full
//     chained HotStuff SMR with replicated state machines;
//   - a deterministic discrete-event simulator of the partial synchrony
//     model (adversarial GST, delays, corruptions, pausable/bumpable
//     local clocks);
//   - a real TCP runtime running the same protocol code as actual
//     processes;
//   - the benchmark harness that regenerates the paper's Table 1 and
//     Figure 1 (see EXPERIMENTS.md);
//   - a fault-injection layer (partitions, loss, duplication,
//     reordering, crash-recovery churn, omission budgets) and an
//     adaptive attack subsystem with per-word communication accounting.
//
// This package is the public facade: it re-exports the simulation
// harness, the experiment drivers and the TCP cluster API. A minimal
// simulated run:
//
//	res := lumiere.Run(lumiere.Scenario{
//		Protocol: lumiere.ProtoLumiere,
//		F:        3,                       // n = 10
//		Delta:    100 * time.Millisecond,  // Δ
//		Duration: 30 * time.Second,        // virtual time
//	})
//	fmt.Println("decisions:", res.DecisionCount())
//
// # Adaptive attacks and word complexity
//
// Scenario.Attack arms one of the adaptive strategies — adversaries
// that observe protocol traffic through read-only hooks (message kind,
// view, sender, leader schedule) and steer the corrupted processors
// dynamically:
//
//	AttackViewDesync    vote-then-silence: help certify f+1 views, vanish, repeat
//	AttackLeaderTarget  omit traffic to/from the next k leaders as views advance
//	AttackGSTStraddle   flawless until GST, worst-case timing and silence after
//	AttackSaturate      protocol-legal sync spam pushing toward the O(n²) bound
//
//	res := lumiere.Run(lumiere.Scenario{
//		Protocol: lumiere.ProtoLumiere,
//		F:        3,
//		GST:      2 * time.Second,
//		Attack:   lumiere.AttackSpec{Name: lumiere.AttackSaturate},
//	})
//
// Every execution accounts honest communication in words (one word =
// one κ-bit signature, certificate, hash or bounded integer):
// Result.Collector exposes WordsTotal, WordsWindowAfter (W_T in words),
// WordsByEpoch, and per-decision word statistics via Stats. The
// experiment drivers built on them — AttackTable/RunAttackSweep (every
// protocol × every strategy), EventualWordsTable (words vs f_a) and
// WordScalingTable (words vs n) — exhibit the paper's headline claim
// that Lumiere's eventual word count is linear in the number of actual
// faults rather than in n. Every table driver takes the sweep options
// last (the zero value runs on all CPUs) and renders byte-identically at
// every worker count:
//
//	t := lumiere.AttackTable(1, 42, lumiere.SweepOptions{Workers: 4})
//	fmt.Print(t.Render())
//
// # Adversarial search and the worst-case frontier
//
// RedTeam searches the combined attack × chaos parameter space
// (strategy, strategic-processor count, period, GST placement, loss,
// partitions, churn) for the candidate each protocol handles worst,
// per objective — post-GST synchronization latency, W_GST in words,
// and p99 commit latency under SMR load:
//
//	fr := lumiere.RedTeam(lumiere.RedTeamConfig{F: 2, Seed: 42})
//	fmt.Print(fr.Table().Render())
//
// Evaluation is deterministic (candidate-keyed seeds, byte-identical
// at any worker count), every PR 4 scripted attack is a grid member
// (so the searched frontier dominates the scripted corpus by
// construction), and each worst case is delta-debugged to the
// smallest candidate reproducing ≥95% of its objective. The committed
// FRONTIER.json at the repository root pins the reference frontier;
// regenerate it with cmd/lumiere-bench -redteam -frontier
// FRONTIER.json. See DESIGN.md §1d and EXPERIMENTS.md "Searched
// worst-case frontier".
//
// # SMR throughput and commit latency
//
// Scenario.Workload drives the chained-HotStuff SMR layer with a
// logical client population (open loop at an exact offered rate, or
// closed loop with one outstanding command per client), batched into
// proposals whose payload bytes are charged ⌈bytes/32⌉ words. The
// collector records per-command submit→commit latency
// (Result.Collector.CommitLatencyStats). ThroughputTable (protocols ×
// offered load × batch size) and ThroughputUnderAttackTable (clean vs
// view-desync p99 at fixed load) render the tables lumiere-bench -smr
// prints; see DESIGN.md §8 and EXPERIMENTS.md "Throughput & commit
// latency".
//
// # WAN deployments: topology, clock drift, stragglers
//
// Scenario.Topology replaces the uniform delay base with a regional
// latency matrix (per-link class delays under the same §2 clamp —
// classes the clamp would distort are rejected up front, never
// silently clamped); Scenario.DriftPPM/DriftSkew give each node a
// drifting hardware clock through which it sees every timer and clock
// read; Scenario.ProcDelays models slow replicas that ingest messages
// late (applied after the clamp: node slowness, not network delay).
// PresetTopology builds the standard presets (single, wan3, hub,
// degraded):
//
//	res := lumiere.Run(lumiere.Scenario{
//		Protocol: lumiere.ProtoLumiere,
//		F:        1,
//		Delta:    lumiere.AttackDelta,
//		Topology: lumiere.PresetTopology("wan3", 4, lumiere.AttackDelta),
//		DriftPPM: []int64{200, -200},
//	})
//
// TopologyTable (protocols × presets) and DriftToleranceTable (drift
// magnitudes in and beyond the Lemma 5.1–5.3 tolerance |ppm|·Γ ≤ Δ·10⁶)
// render the graceful-degradation tables lumiere-bench -wan prints,
// and the red-team search covers the same axes. See DESIGN.md §1e and
// EXPERIMENTS.md "WAN degradation".
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package lumiere
