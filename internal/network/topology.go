package network

import (
	"fmt"
	"math/rand"
	"time"

	"lumiere/internal/msg"
	"lumiere/internal/types"
)

// Topology describes a geo-distributed deployment as a regional link
// matrix: processors are grouped into regions (in ID order), and the
// one-way latency of a link depends on the sender's and recipient's
// regions. It realizes as a LinkPolicy (Policy) that composes under the
// §2 clamp like every other link condition — but unlike the chaos
// policies it is a *deployment* model, so the harness validates it
// against Δ up front (Validate): a latency class exceeding Δ would be
// silently clamped post-GST, quietly distorting every table built on
// it, and is a scenario error instead.
//
// Topology also carries the two heterogeneity axes that are not link
// properties: per-region processing delay (ProcDelays — the straggler
// model, applied by the simulator at the dispatch boundary, outside the
// network clamp) and regional partitions (Isolated — realized by the
// harness through the adversary partition primitives).
type Topology struct {
	// Regions holds the number of processors per region; processors are
	// assigned in ID order (region 0 gets IDs 0..Regions[0]-1, and so
	// on). The sizes must sum to the scenario's n.
	Regions []int
	// Intra and Inter are the default one-way latency classes for
	// same-region and cross-region links. Matrix, when non-nil, is an
	// R×R per-region-pair override (Matrix[i][j] = latency from region i
	// to region j) and may be asymmetric.
	Intra  time.Duration
	Inter  time.Duration
	Matrix [][]time.Duration
	// Jitter adds an independent uniform extra delay in [0, Jitter] per
	// link. Latency class + Jitter must stay ≤ Δ.
	Jitter time.Duration
	// ProcDelays, when non-nil, gives each region a fixed per-delivery
	// processing delay (len R): every network message into one of the
	// region's processors is ingested that much later. This is node
	// slowness, not network delay — it is applied after the §2 clamp and
	// may exceed Δ (a degraded region lags the protocol without
	// violating the network model).
	ProcDelays []time.Duration
	// Isolated lists region indices cut off from the rest (each
	// isolated region forms its own partition group) until IsolateHeal
	// (zero = heal at GST, the model-faithful split-brain).
	Isolated    []int
	IsolateHeal time.Duration
}

// R returns the number of regions.
func (t *Topology) R() int { return len(t.Regions) }

// N returns the total number of processors the topology covers.
func (t *Topology) N() int {
	n := 0
	for _, r := range t.Regions {
		n += r
	}
	return n
}

// latency returns the latency class from region i to region j.
func (t *Topology) latency(i, j int) time.Duration {
	if t.Matrix != nil {
		return t.Matrix[i][j]
	}
	if i == j {
		return t.Intra
	}
	return t.Inter
}

// Validate checks the topology against a scenario with n processors and
// partial-synchrony bound delta. It rejects shapes that cannot mean
// what they say: region sizes that do not cover n, malformed matrices,
// negative delays, out-of-range isolated regions — and, the point of
// validating at all, any latency class whose worst draw (class +
// Jitter) exceeds delta, which the network would otherwise silently
// clamp post-GST.
func (t *Topology) Validate(n int, delta time.Duration) error {
	if len(t.Regions) == 0 {
		return fmt.Errorf("topology: no regions")
	}
	for i, r := range t.Regions {
		if r < 1 {
			return fmt.Errorf("topology: region %d has %d processors; every region needs at least 1", i, r)
		}
	}
	if t.N() != n {
		return fmt.Errorf("topology: regions cover %d processors, scenario has n=%d", t.N(), n)
	}
	r := t.R()
	if t.Matrix != nil {
		if len(t.Matrix) != r {
			return fmt.Errorf("topology: matrix has %d rows for %d regions", len(t.Matrix), r)
		}
		for i, row := range t.Matrix {
			if len(row) != r {
				return fmt.Errorf("topology: matrix row %d has %d entries for %d regions", i, len(row), r)
			}
		}
	}
	if t.Intra < 0 || t.Inter < 0 {
		return fmt.Errorf("topology: negative latency class (intra %v, inter %v)", t.Intra, t.Inter)
	}
	if t.Jitter < 0 {
		return fmt.Errorf("topology: negative jitter %v", t.Jitter)
	}
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			l := t.latency(i, j)
			if l < 0 {
				return fmt.Errorf("topology: negative latency %v from region %d to %d", l, i, j)
			}
			if l+t.Jitter > delta {
				return fmt.Errorf("topology: latency %v + jitter %v from region %d to %d exceeds Δ=%v; the post-GST clamp would silently distort it",
					l, t.Jitter, i, j, delta)
			}
		}
	}
	if t.ProcDelays != nil {
		if len(t.ProcDelays) != r {
			return fmt.Errorf("topology: %d proc delays for %d regions", len(t.ProcDelays), r)
		}
		for i, d := range t.ProcDelays {
			if d < 0 {
				return fmt.Errorf("topology: negative proc delay %v for region %d", d, i)
			}
		}
	}
	seen := make(map[int]bool, len(t.Isolated))
	for _, i := range t.Isolated {
		if i < 0 || i >= r {
			return fmt.Errorf("topology: isolated region %d out of range [0,%d)", i, r)
		}
		if seen[i] {
			return fmt.Errorf("topology: region %d isolated twice", i)
		}
		seen[i] = true
	}
	if t.IsolateHeal < 0 {
		return fmt.Errorf("topology: negative isolate heal %v", t.IsolateHeal)
	}
	return nil
}

// regionBounds returns the first node ID of each region plus the total,
// i.e. region i covers IDs [b[i], b[i+1]).
func (t *Topology) regionBounds() []int {
	b := make([]int, len(t.Regions)+1)
	for i, r := range t.Regions {
		b[i+1] = b[i] + r
	}
	return b
}

// NodeProcDelays expands the per-region ProcDelays into a per-node
// slice (nil when the topology has none).
func (t *Topology) NodeProcDelays() []time.Duration {
	if t.ProcDelays == nil {
		return nil
	}
	out := make([]time.Duration, 0, t.N())
	for i, r := range t.Regions {
		for k := 0; k < r; k++ {
			out = append(out, t.ProcDelays[i])
		}
	}
	return out
}

// IslandGroups returns the Isolated regions as partition groups (one
// group of node IDs per isolated region), ready for the adversary
// partition primitives. Nil when nothing is isolated.
func (t *Topology) IslandGroups() [][]types.NodeID {
	if len(t.Isolated) == 0 {
		return nil
	}
	b := t.regionBounds()
	groups := make([][]types.NodeID, 0, len(t.Isolated))
	for _, ri := range t.Isolated {
		g := make([]types.NodeID, 0, t.Regions[ri])
		for id := b[ri]; id < b[ri+1]; id++ {
			g = append(g, types.NodeID(id))
		}
		groups = append(groups, g)
	}
	return groups
}

// Policy compiles the topology into its LinkPolicy: per transmission,
// the latency class of the (sender region, recipient region) pair plus
// an independent uniform draw in [0, Jitter]. The compiled policy
// precomputes the node→region map and a flattened delay matrix, and its
// Link path performs no allocation (TestTopologyAllocs pins it).
// Isolated and ProcDelays are not part of the link policy — the harness
// realizes them through the partition primitives and the simulator's
// dispatch boundary respectively.
func (t *Topology) Policy() LinkPolicy {
	r := t.R()
	p := topologyLink{
		regions: r,
		region:  make([]int32, 0, t.N()),
		delays:  make([]time.Duration, r*r),
		jitter:  t.Jitter,
	}
	for i, size := range t.Regions {
		for k := 0; k < size; k++ {
			p.region = append(p.region, int32(i))
		}
		for j := 0; j < r; j++ {
			p.delays[i*r+j] = t.latency(i, j)
		}
	}
	return p
}

// topologyLink is the compiled regional-matrix policy.
type topologyLink struct {
	regions int
	region  []int32
	delays  []time.Duration
	jitter  time.Duration
}

// Link implements LinkPolicy.
func (p topologyLink) Link(from, to types.NodeID, _ msg.Message, _ types.Time, rng *rand.Rand) Verdict {
	d := p.delays[int(p.region[from])*p.regions+int(p.region[to])]
	if p.jitter > 0 {
		d += time.Duration(rng.Int63n(int64(p.jitter) + 1))
	}
	return Verdict{Delay: d}
}

// PreGSTChaosLink delays messages sent before GST as long as the model
// allows (arrival at GST+Δ) and defers to Base at or after GST. This
// models the unbounded asynchrony before stabilization, over any delay
// base: a uniform DelayLink or a Topology.
type PreGSTChaosLink struct {
	GST  types.Time
	Base LinkPolicy
}

// Link implements LinkPolicy.
func (p PreGSTChaosLink) Link(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) Verdict {
	if at < p.GST {
		return Verdict{Delay: time.Duration(1<<62 - 1)} // clamped to GST+Δ
	}
	return p.Base.Link(from, to, m, at, rng)
}
