package metrics

import (
	"sort"
	"time"

	"lumiere/internal/clock"
	"lumiere/internal/types"
)

// GapSample is one observation of the honest clock gaps of Definition 3.1.
type GapSample struct {
	At types.Time
	// HG is indexed by i−1: HG[i-1] = hg_{i,t}, the gap between the
	// most advanced honest clock and the i-th most advanced.
	HG []time.Duration
}

// GapTracker samples the local clocks of honest processors and computes
// hg_{f+1} and hg_{2f+1} trajectories, used to validate §3.5's
// gap-shrinking argument (Lemma 5.9, Lemma 5.12).
type GapTracker struct {
	clocks  []*clock.Clock
	honest  []bool
	f       int
	samples []GapSample
}

// NewGapTracker tracks clocks[i] wherever honest[i] marks its owner
// honest. Both slices are read at each sample, so an execution whose
// processors join over time fills clocks in as they do: a nil clock (a
// processor that has not joined yet) is skipped.
func NewGapTracker(clocks []*clock.Clock, honest []bool, f int) *GapTracker {
	return &GapTracker{clocks: clocks, honest: honest, f: f}
}

// Sample records the current gaps; after Stop it records nothing.
func (g *GapTracker) Sample(at types.Time) {
	vals := make([]types.Time, 0, len(g.clocks))
	for i, c := range g.clocks {
		if c != nil && i < len(g.honest) && g.honest[i] {
			vals = append(vals, c.Read())
		}
	}
	if len(vals) == 0 {
		return
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	hg := make([]time.Duration, len(vals))
	for i := range vals {
		hg[i] = vals[0].Sub(vals[i])
	}
	g.samples = append(g.samples, GapSample{At: at, HG: hg})
}

// Stop ends sampling. The tracker keeps its samples and drops its
// clocks: a clock's alarm is its pacemaker's closure, so a stopped
// tracker no longer keeps a finished execution's protocol stack alive.
func (g *GapTracker) Stop() { g.clocks, g.honest = nil, nil }

// Samples returns the recorded trajectory.
func (g *GapTracker) Samples() []GapSample { return g.samples }

// gapAt extracts hg_{i} from a sample, saturating on short samples.
func gapAt(s GapSample, i int) time.Duration {
	if i-1 < len(s.HG) {
		return s.HG[i-1]
	}
	if len(s.HG) == 0 {
		return 0
	}
	return s.HG[len(s.HG)-1]
}

// GapF1 returns hg_{f+1} of a sample.
func (g *GapTracker) GapF1(s GapSample) time.Duration { return gapAt(s, g.f+1) }

// Gap2F1 returns hg_{2f+1} of a sample.
func (g *GapTracker) Gap2F1(s GapSample) time.Duration { return gapAt(s, 2*g.f+1) }

// MaxGapF1After returns the maximum hg_{f+1} over samples taken strictly
// after t.
func (g *GapTracker) MaxGapF1After(t types.Time) time.Duration {
	var max time.Duration
	for _, s := range g.samples {
		if s.At > t {
			if v := g.GapF1(s); v > max {
				max = v
			}
		}
	}
	return max
}

// FirstTimeGapF1Below returns the first sample time after t at which
// hg_{f+1} ≤ bound.
func (g *GapTracker) FirstTimeGapF1Below(t types.Time, bound time.Duration) (types.Time, bool) {
	for _, s := range g.samples {
		if s.At > t && g.GapF1(s) <= bound {
			return s.At, true
		}
	}
	return 0, false
}
