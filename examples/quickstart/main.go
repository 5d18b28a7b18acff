// Quickstart: run Lumiere driving chained HotStuff on a simulated
// partial-synchrony network, commit a replicated KV workload, and print
// what happened. This is the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"time"

	"lumiere/internal/harness"
	"lumiere/internal/statemachine"
	"lumiere/internal/workload"
)

func main() {
	const delta = 100 * time.Millisecond
	res := harness.Run(harness.Scenario{
		Protocol:    harness.ProtoLumiere,
		F:           1,                    // n = 3f+1 = 4 replicas
		Delta:       delta,                // Δ = 100ms (known bound)
		DeltaActual: 5 * time.Millisecond, // δ: the network is actually fast
		Duration:    20 * time.Second,     // virtual time — runs in ~ms of real time
		SMR:         true,                 // chained HotStuff + KV store
		// 100 client commands per second, each a SET of its client's key.
		Workload: &workload.Config{Rate: 100, Clients: 64},
		Seed:     1,
	})

	fmt.Printf("simulated %v of a %d-replica cluster\n", 20*time.Second, res.Cfg.N)
	fmt.Printf("consensus decisions: %d\n", res.DecisionCount())

	stats := res.Collector.Stats(0, 5)
	fmt.Printf("mean decision gap:   %v  (Δ=%v, δ=%v — optimistic responsiveness at work)\n",
		stats.MeanGap.Round(time.Millisecond), res.Cfg.Delta, 5*time.Millisecond)

	kv := res.SMs[0].(*statemachine.KV)
	fmt.Printf("blocks committed:    %d\n", len(res.Committed[0]))
	fmt.Printf("commands executed:   %d commands → %d live keys\n", res.Injected, kv.Len())
	if v, ok := kv.Get("c1"); ok {
		fmt.Printf("kv[\"c1\"] = %q on every replica\n", v)
	}
	fmt.Printf("heavy Θ(n²) syncs after warmup: %d (Lumiere retires them — Theorem 1.1(4))\n",
		len(res.Collector.HeavySyncViews(res.GST.Add(5*time.Second))))
}
