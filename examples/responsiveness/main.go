// Responsiveness demonstrates Theorem 1.1(3): Lumiere is *smoothly
// optimistically responsive*. With no faults, decision latency tracks the
// actual network delay δ, not the conservative bound Δ; and each
// additional actual fault adds only O(Δ) to the worst stall — latency
// O(Δ·f_a + δ).
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

	fmt.Printf("Part 1 — latency tracks δ (f_a = 0, Δ = %v fixed):\n\n", delta)
	fmt.Printf("%12s %16s %16s\n", "actual δ", "mean gap", "gap/δ")
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		res := harness.Run(harness.Scenario{
			Protocol:    harness.ProtoLumiere,
			F:           f,
			Delta:       delta,
			DeltaActual: d,
			Duration:    90 * time.Second,
			Seed:        3,
		})
		stats := res.Collector.Stats(types.Time(0).Add(20*time.Second), 5)
		fmt.Printf("%12v %16v %16.2f\n", d, stats.MeanGap.Round(100*time.Microsecond),
			float64(stats.MeanGap)/float64(d))
	}
	fmt.Println("\nThe ratio stays ~3 (= x, the view round-trips): pure network speed.")

	fmt.Printf("\nPart 2 — smooth degradation in f_a (δ = %v):\n\n", delta/20)
	fmt.Printf("%6s %12s %14s %16s\n", "f_a", "decisions", "mean gap", "max stall")
	for fa := 0; fa <= f; fa++ {
		res := harness.Run(harness.Scenario{
			Protocol:    harness.ProtoLumiere,
			F:           f,
			Delta:       delta,
			DeltaActual: delta / 20,
			Corruptions: adversary.NonProposingSet(nodesUpTo(fa)...),
			Duration:    120 * time.Second,
			Seed:        3,
		})
		stats := res.Collector.Stats(types.Time(0).Add(20*time.Second), 5)
		fmt.Printf("%6d %12d %14v %16v\n", fa, stats.Count,
			stats.MeanGap.Round(time.Millisecond), stats.MaxGap.Round(time.Millisecond))
	}
	fmt.Println("\nEach Byzantine leader costs O(Γ) = O(Δ) when its views come up;")
	fmt.Println("honest views still complete at network speed in between.")
}

func nodesUpTo(k int) []types.NodeID {
	out := make([]types.NodeID, k)
	for i := range out {
		out[i] = types.NodeID(i)
	}
	return out
}
