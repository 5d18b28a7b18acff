// Command lumiere-sim runs one simulated execution of a view
// synchronization protocol under the partial synchrony model and prints
// its metrics.
//
// Examples:
//
//	lumiere-sim -protocol lumiere -f 3 -duration 60s
//	lumiere-sim -protocol lp22 -f 3 -nonproposing 1 -trace
//	lumiere-sim -protocol lumiere -f 2 -smr -rate 200
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
	"lumiere/internal/viz"
	"lumiere/internal/workload"
)

func main() {
	var (
		protocol    = flag.String("protocol", "lumiere", "protocol: lumiere | basic-lumiere | lp22 | fever | cogsworth | nk20")
		f           = flag.Int("f", 3, "fault tolerance f (n = 3f+1)")
		delta       = flag.Duration("delta", 100*time.Millisecond, "Δ, the known post-GST delay bound")
		deltaActual = flag.Duration("delta-actual", 0, "δ, the actual message delay (default Δ/10)")
		gst         = flag.Duration("gst", 0, "global stabilization time")
		duration    = flag.Duration("duration", 60*time.Second, "virtual run length")
		seed        = flag.Int64("seed", 1, "randomness seed (runs are reproducible)")
		crash       = flag.Int("crash", 0, "crash this many processors from the start")
		nonProp     = flag.Int("nonproposing", 0, "this many Byzantine processors never propose")
		withTrace   = flag.Bool("trace", false, "print the event timeline")
		lanes       = flag.Bool("lanes", false, "render per-processor swimlanes (Figure 1 style)")
		gaps        = flag.Bool("gaps", false, "sample honest clock gaps")
		smr         = flag.Bool("smr", false, "run chained HotStuff SMR with a KV store")
		rate        = flag.Int("rate", 100, "client commands per second from 64 clients (with -smr; 0 = no client load)")
		checks      = flag.Bool("checks", true, "verify Lemma 5.1-5.3 invariants (lumiere)")
	)
	flag.Parse()

	var corruptions []adversary.Corruption
	next := 0
	for i := 0; i < *crash; i++ {
		corruptions = append(corruptions, adversary.Corruption{Node: types.NodeID(next), Behavior: adversary.BehaviorCrash})
		next++
	}
	for i := 0; i < *nonProp; i++ {
		corruptions = append(corruptions, adversary.Corruption{Node: types.NodeID(next), Behavior: adversary.BehaviorNonProposing})
		next++
	}

	s := harness.Scenario{
		Protocol:        harness.Protocol(*protocol),
		F:               *f,
		Delta:           *delta,
		DeltaActual:     *deltaActual,
		GST:             *gst,
		Duration:        *duration,
		Seed:            *seed,
		Corruptions:     corruptions,
		CheckInvariants: *checks,
		SampleGaps:      *gaps,
		SMR:             *smr,
	}
	if *smr && *rate != 0 {
		s.Workload = &workload.Config{Rate: int64(*rate), Clients: 64}
	}
	if *withTrace || *lanes {
		s.TraceLimit = 500_000
	}

	if err := s.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "lumiere-sim:", err)
		os.Exit(2)
	}
	res := harness.Run(s)

	fmt.Printf("protocol:        %s (n=%d, f=%d, fa=%d)\n", *protocol, res.Cfg.N, res.Cfg.F, len(corruptions))
	fmt.Printf("Δ=%v  δ=%v  Γ=%v  GST=%v  duration=%v  seed=%d\n",
		res.Cfg.Delta, res.Scenario.DeltaActual, res.Gamma, res.GST, res.Scenario.Duration, *seed)
	fmt.Printf("decisions:       %d\n", res.DecisionCount())
	fmt.Printf("honest messages: %d (byzantine: %d)\n", res.Collector.HonestSends(), res.Collector.ByzantineSends())
	stats := res.Collector.Stats(res.GST, 5)
	if stats.Count > 0 {
		fmt.Printf("per-decision:    mean %.1f msgs, max %.0f msgs; mean gap %v, max gap %v\n",
			stats.MeanMsgs, stats.MaxMsgs, stats.MeanGap.Round(time.Microsecond), stats.MaxGap.Round(time.Microsecond))
		fmt.Printf("throughput:      %.1f decisions/s (virtual)\n", stats.DecisionsPerSecSimed)
	}
	heavy := res.Collector.HeavySyncViews(res.GST.Add(res.Scenario.Duration / 4))
	fmt.Printf("heavy syncs after warmup: %d\n", len(heavy))
	fmt.Printf("final views:     %v\n", res.FinalViews)
	if *gaps && len(res.Gaps.Samples()) > 0 {
		fmt.Printf("max hg_{f+1} after GST: %v (Γ = %v)\n", res.Gaps.MaxGapF1After(res.GST), res.Gamma)
	}
	if *smr {
		committed := -1
		for _, log := range res.Committed {
			if log != nil && (committed < 0 || len(log) < committed) {
				committed = len(log)
			}
		}
		fmt.Printf("committed blocks (min across replicas): %d; injected commands: %d\n", committed, res.Injected)
		for i, sm := range res.SMs {
			if kv, ok := sm.(*statemachine.KV); ok && kv != nil {
				fmt.Printf("kv keys on replica %d: %d\n", i, kv.Len())
				break
			}
		}
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "INVARIANT VIOLATIONS (%d):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "  ", v)
		}
		os.Exit(1)
	}
	if *lanes && res.Tracer != nil {
		fmt.Println("---- swimlanes (middle 20Γ of the run) ----")
		mid := types.Time(0).Add(res.Scenario.Duration / 2)
		fmt.Print(viz.Swimlane(res.Tracer.Events(), res.Cfg.N, mid, mid.Add(20*res.Gamma), 110))
	}
	if *withTrace && res.Tracer != nil {
		fmt.Println("---- timeline ----")
		fmt.Print(res.Tracer.Render())
	}
}
