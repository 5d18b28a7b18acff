// Package allocgate runs allocation gates: tests that pin how many heap
// objects a code path allocates. Counts are deterministic in a normal
// build, so a gate can assert an exact number. Under the race detector
// they are not: its runtime drops a random quarter of sync.Pool puts, so
// a path that reuses pooled objects allocates at random. A gate measured
// through PerRun skips there instead of flaking; -short does not skip it.
package allocgate

import "testing"

// PerRun returns testing.AllocsPerRun(runs, f): the average number of
// allocations per call of f, after one warm-up call. Under the race
// detector it skips the calling test and never calls f.
func PerRun(tb testing.TB, runs int, f func()) float64 {
	tb.Helper()
	if raceEnabled {
		tb.Skip("allocation counts are not deterministic under the race detector")
	}
	return testing.AllocsPerRun(runs, f)
}
