// Viewsync compares all six implemented view synchronization protocols on
// the same adversarial scenario — the paper's Table 1, live: n = 10 with
// one silent Byzantine processor and a fast network. Watch LP22 pay a
// Θ(n²) epoch synchronization forever and stall behind its unbumped
// clocks, while Lumiere stays linear and responsive.
package main

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/types"
)

func main() {
	const (
		f     = 3                      // n = 10
		delta = 100 * time.Millisecond // Δ, the known delay bound
	)

	fmt.Printf("n=%d, f=%d, one crashed processor, Δ=%v, δ=%v, 120s virtual\n\n", 3*f+1, f, delta, delta/20)
	fmt.Printf("%-14s %10s %12s %12s %12s %8s\n", "protocol", "decisions", "mean msgs", "max msgs", "max stall", "heavyΘn²")

	for _, p := range harness.AllProtocols {
		res := harness.Run(harness.Scenario{
			Protocol:    p,
			F:           f,
			Delta:       delta,
			DeltaActual: delta / 20,
			Corruptions: adversary.CrashFirst(1),
			Duration:    120 * time.Second,
			Seed:        7,
		})
		stats := res.Collector.Stats(types.Time(0).Add(20*time.Second), 5)
		heavy := len(res.Collector.HeavySyncViews(types.Time(0).Add(20 * time.Second)))
		fmt.Printf("%-14s %10d %12.1f %12.0f %12v %8d\n",
			p, stats.Count, stats.MeanMsgs, stats.MaxMsgs,
			stats.MaxGap.Round(time.Millisecond), heavy)
	}

	fmt.Println("\nColumns: decisions in steady state; honest messages per decision window")
	fmt.Println("(mean and worst); longest stall between decisions; heavy epoch syncs.")
	fmt.Println("Lumiere: linear per-decision cost, bounded stalls, zero heavy syncs.")
}
