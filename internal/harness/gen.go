package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/hotstuff"
	"lumiere/internal/network"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// This file implements the scenario generator and conformance checker
// behind the cross-protocol conformance suite (conformance_test.go): a
// seeded source of random-but-reproducible executions, and the
// protocol-independent safety/liveness obligations every view
// synchronization protocol in AllProtocols must meet on them.

// kvCommand appends corpus command i, "SET key<i%64> value<i>", to b.
// It is the payload of every generated SMR scenario, whose proposal
// words depend on these bytes, and of InjectCommands on the TCP runtime.
func kvCommand(b []byte, i int64) []byte {
	b = append(b, "SET key"...)
	b = strconv.AppendInt(b, i%64, 10)
	b = append(b, " value"...)
	return strconv.AppendInt(b, i, 10)
}

// GenScenario derives a random but fully reproducible scenario from seed:
// random fault count up to f, random corruption behaviors (crash,
// non-proposing, late-proposing, mid-run crash, crash-recovery churn;
// plus equivocation when the SMR stack is on), a random delay policy
// bounded by Δ, random GST, pre-GST chaos, staggered joins, a coin for
// running the full SMR stack, link conditions from the chaos axes on a
// second coin (partition, loss, duplication, reorder jitter, omission
// budget), when the fault budget has headroom an
// adaptive attack strategy (view-desync, leader-target, gst-straddle or
// complexity-saturate) on 1..f−f_a strategic processors, and in-model
// WAN axes on independent coins: a 2–3-region topology replacing the
// delay policy, per-node clock drift up to ±10⁴ ppm with skews inside
// ±Δ/4, and a single millisecond-scale straggler. The scenario's
// Protocol is left unset so callers can run the same generated
// adversary against every protocol; invariant checking is enabled.
//
// The generated space is sized for conformance sweeps: f ∈ {1, 2}
// (n ∈ {4, 7}), 60 virtual seconds, GST ≤ 2s — small enough that a sweep
// of dozens of cells stays fast, hard enough to exercise every
// view-synchronization mechanism (joins, bumps, epoch syncs, view-change
// stalls, partition heals, churn recoveries).
func GenScenario(seed int64) Scenario { return genScenario(seed, false) }

// GenChaosScenario is GenScenario with the link-condition axes always
// on: every generated scenario carries at least one of partition, loss,
// duplication, reorder jitter, or crash-recovery churn. The chaos
// conformance sweep (ChaosSweep) runs on this generator.
func GenChaosScenario(seed int64) Scenario { return genScenario(seed, true) }

func genScenario(seed int64, forceChaos bool) Scenario {
	rng := rand.New(rand.NewSource(seed))
	delta := 50 * time.Millisecond
	f := 1 + rng.Intn(2)
	n := 3*f + 1
	fa := rng.Intn(f + 1)
	smr := rng.Intn(4) == 0

	behaviors := []adversary.Behavior{
		adversary.BehaviorCrash,
		adversary.BehaviorNonProposing,
		adversary.BehaviorLateProposing,
		adversary.BehaviorCrashAt,
		adversary.BehaviorChurn,
	}
	if smr {
		// Equivocation needs the HotStuff engine.
		behaviors = append(behaviors, adversary.BehaviorEquivocating)
	}
	perm := rng.Perm(n)
	corr := make([]adversary.Corruption, 0, fa)
	for i := 0; i < fa; i++ {
		c := adversary.Corruption{
			Node:     types.NodeID(perm[i]),
			Behavior: behaviors[rng.Intn(len(behaviors))],
		}
		switch c.Behavior {
		case adversary.BehaviorLateProposing:
			c.Lag = time.Duration(1+rng.Intn(200)) * time.Millisecond
		case adversary.BehaviorCrashAt:
			c.At = time.Duration(5+rng.Intn(25)) * time.Second
		case adversary.BehaviorChurn:
			// 1-2 non-overlapping downtimes, all recovered by 30s so
			// the node rejoins well inside the liveness window.
			cursor := time.Duration(rng.Intn(5000)) * time.Millisecond
			downs := make([]adversary.Downtime, 1+rng.Intn(2))
			for j := range downs {
				from := cursor + time.Duration(rng.Intn(5000))*time.Millisecond
				to := from + time.Duration(200+rng.Intn(4000))*time.Millisecond
				downs[j] = adversary.Downtime{From: from, To: to}
				cursor = to + time.Duration(500+rng.Intn(2000))*time.Millisecond
			}
			c.Downs = downs
		}
		corr = append(corr, c)
	}

	var delay network.DelayPolicy
	switch rng.Intn(4) {
	case 0:
		// nil: the harness default Fixed{Δ/10}.
	case 1:
		delay = network.Fixed{D: delta / time.Duration(2+rng.Intn(20))}
	case 2:
		delay = network.Uniform{Min: time.Millisecond, Max: delta}
	case 3:
		delay = network.Uniform{Min: delta / 2, Max: delta}
	}

	gst := time.Duration(rng.Intn(3)) * time.Second
	s := Scenario{
		Name:            fmt.Sprintf("gen-%d", seed),
		F:               f,
		Delta:           delta,
		Delay:           delay,
		PreGSTChaos:     gst > 0 && rng.Intn(2) == 0,
		GST:             gst,
		StartStagger:    time.Duration(rng.Intn(500)) * time.Millisecond,
		Corruptions:     corr,
		Duration:        60 * time.Second,
		Seed:            seed,
		CheckInvariants: true,
	}
	if smr {
		s.SMR = true
		s.Workload = &workload.Config{Rate: 100, Command: kvCommand}
		s.SMRTwoPhase = rng.Intn(2) == 0
	}

	// Link-condition axes. Each axis is drawn independently; forceChaos
	// (and a plain-GenScenario coin) guarantees at least one lands by
	// promoting the pick axis.
	if forceChaos || rng.Intn(2) == 0 {
		pick := rng.Intn(3)
		if pick == 0 || rng.Intn(3) == 0 {
			// Partition: isolate a random island of 1..f+1 processors
			// (drawn from the permutation tail, so it usually cuts off
			// honest processors). Heals at GST; when GST = 0 it heals
			// at 1s instead — the cross-partition drops degrade to
			// Δ-late deliveries, a legal post-GST condition.
			k := 1 + rng.Intn(f+1)
			island := make([]types.NodeID, k)
			for i := range island {
				island[i] = types.NodeID(perm[n-1-i])
			}
			s.Partitions = [][]types.NodeID{island}
			if gst == 0 {
				s.PartitionHeal = time.Second
			}
		}
		if pick == 1 || rng.Intn(3) == 0 {
			s.Loss = 0.1 + 0.4*rng.Float64()
			if rng.Intn(2) == 0 {
				// Loss heals at GST; at GST = 0 heal at 1s instead
				// (LossUntil 0 is Lossy's whole-run sentinel, the
				// opposite of healing).
				s.LossUntil = gst
				if gst == 0 {
					s.LossUntil = time.Second
				}
			}
			if rng.Intn(2) == 0 {
				// A bounded post-GST omission budget charged to a
				// single sender (≤ f), exercising true loss after
				// stabilization.
				s.OmissionBudget = network.OmissionBudget{
					MaxMessages: 10 + rng.Intn(90),
					MaxSenders:  1,
				}
			}
		}
		if pick == 2 || rng.Intn(3) == 0 {
			s.Duplication = 0.1 + 0.4*rng.Float64()
			if rng.Intn(2) == 0 {
				s.ReorderJitter = time.Duration(1+rng.Intn(int(delta/time.Millisecond))) * time.Millisecond
			}
		}
	}

	// Adaptive attack strategy. Drawn last so every earlier axis keeps
	// its seed-determined value; the strategy's processors are the
	// highest free IDs and charge against the same f budget as the
	// static corruptions, so the draw only fires when that budget has
	// headroom.
	if avail := f - fa; avail > 0 && rng.Intn(3) == 0 {
		names := adversary.AttackNames()
		s.Attack = adversary.AttackSpec{
			Name:  names[rng.Intn(len(names))],
			Nodes: 1 + rng.Intn(avail),
		}
		switch s.Attack.Name {
		case adversary.AttackViewDesync, adversary.AttackSaturate:
			s.Attack.Period = time.Duration(1+rng.Intn(20)) * delta
		case adversary.AttackLeaderTarget:
			s.Attack.K = 1 + rng.Intn(f)
		}
	}

	// WAN axes: regional topology, clock drift, stragglers. Drawn last
	// (after the attack axis) so every pre-existing corpus seed keeps
	// its earlier draws; values stay in-model (Scenario.Validate's
	// bounds without UncheckedWAN) so the §2 obligations still bind.
	if rng.Intn(3) == 0 {
		s.Topology = &network.Topology{
			Regions: splitRegions(n, 2+rng.Intn(2)),
			Intra:   time.Duration(1+rng.Intn(5)) * time.Millisecond,
			Inter:   time.Duration(10+rng.Intn(25)) * time.Millisecond,
			Jitter:  time.Duration(rng.Intn(10)) * time.Millisecond,
		}
		s.Delay = nil // the topology is the delay model
	}
	if rng.Intn(3) == 0 {
		ppm := make([]int64, n)
		skew := make([]time.Duration, n)
		for i := range ppm {
			// ±10k ppm: in-model for every Γ here (err ≤ Γ/100 ≪ Δ).
			ppm[i] = int64(rng.Intn(20_001)) - 10_000
			skew[i] = time.Duration(rng.Intn(int(delta/2))) - delta/4
		}
		s.DriftPPM, s.DriftSkew = ppm, skew
	}
	if rng.Intn(4) == 0 {
		pd := make([]time.Duration, n)
		pd[rng.Intn(n)] = time.Duration(1+rng.Intn(10)) * time.Millisecond
		s.ProcDelays = pd
	}
	return s
}

// ConformanceReport checks a finished run against the protocol-
// independent obligations of §2 and returns one message per violation
// (empty means the run conforms):
//
//   - the run completed within its event budget;
//   - no runtime invariant (Lemmas 5.1–5.3) was violated;
//   - liveness: an honest-leader decision occurs after GST, within a
//     generous synchronous bound;
//   - view synchronization: the honest processors' final views lie
//     within a bounded spread (crashed and Byzantine processors are
//     exempt);
//   - SMR safety (when the scenario ran the SMR stack): all honest
//     replicas' committed block sequences are prefix-consistent.
func ConformanceReport(res *Result) []string {
	byz := byzantineSet(res)
	var problems []string
	if res.Aborted {
		problems = append(problems, "execution aborted: event budget exhausted")
	}
	for _, v := range res.Violations {
		problems = append(problems, "invariant violation: "+v)
	}

	// Liveness after GST. The bound is deliberately loose: after GST a
	// synchronous system must decide within O(n·Γ) (every protocol here
	// resynchronizes in at most an epoch's worth of views). Long-horizon
	// runs (the red-team attack cells run 30(f+1)Γ past GST) get the
	// horizon minus one Γ instead: a worst-case composed adversary —
	// quorum-sized partition island, GST-straddling strategy, loss — can
	// legitimately push the first honest decision past a fixed 30s while
	// still deciding views before the run ends. The deadline only ever
	// loosens beyond 30s, never tightens below it.
	deadline := 30 * time.Second
	if horizon := res.Scenario.Duration - res.Scenario.GST; horizon-res.Scenario.Protocol.Gamma(res.Scenario.Delta) > deadline {
		deadline = horizon - res.Scenario.Protocol.Gamma(res.Scenario.Delta)
	}
	d, ok := res.Collector.FirstDecisionAfter(res.GST)
	if !ok {
		problems = append(problems, "liveness: no honest-leader decision after GST")
	} else if lat := d.At.Sub(res.GST); lat > deadline {
		problems = append(problems, fmt.Sprintf("liveness: first decision %v after GST (deadline %v)", lat, deadline))
	}

	// View synchronization: honest final views within a bounded spread.
	var minV, maxV types.View = 1 << 60, -1
	for i, v := range res.FinalViews {
		if byz[types.NodeID(i)] || v == types.NoView {
			continue
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 0 {
		problems = append(problems, "no honest replica reported a final view")
	} else if spread := maxV - minV; spread > types.View(30*res.Cfg.N+60) {
		problems = append(problems, fmt.Sprintf("view sync: honest final views spread %d wide ([%v, %v])", spread, minV, maxV))
	}

	if res.Scenario.SMR {
		problems = append(problems, smrConsistencyProblems(res)...)
	}
	return problems
}

// byzantineSet returns the corrupted processors of a run.
func byzantineSet(res *Result) map[types.NodeID]bool {
	byz := make(map[types.NodeID]bool, len(res.Scenario.Corruptions))
	for _, c := range res.Scenario.Corruptions {
		if c.Behavior != adversary.BehaviorHonest {
			byz[c.Node] = true
		}
	}
	return byz
}

// smrConsistencyProblems checks SMR safety: every pair of honest
// replicas' committed block sequences must be prefix-consistent.
func smrConsistencyProblems(res *Result) []string {
	byz := byzantineSet(res)
	var logs [][]hotstuff.Hash
	for i, l := range res.Committed {
		if l != nil && !byz[types.NodeID(i)] {
			logs = append(logs, l)
		}
	}
	if len(logs) == 0 {
		return []string{"smr: no honest hotstuff engines"}
	}
	minLen := len(logs[0])
	for _, l := range logs {
		if len(l) < minLen {
			minLen = len(l)
		}
	}
	for i := 1; i < len(logs); i++ {
		for j := 0; j < minLen; j++ {
			if logs[i][j] != logs[0][j] {
				return []string{fmt.Sprintf("smr: commit logs diverge at index %d", j)}
			}
		}
	}
	if minLen == 0 {
		return []string{"smr: an honest replica committed nothing"}
	}
	return nil
}
