package adversary

import (
	"math/rand"
	"time"

	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/types"
)

// This file implements the composable link-condition primitives: the
// adversary's control over the network beyond pure delay. Each
// primitive wraps a base network.LinkPolicy and tightens its verdict —
// drop across a partition, lose or duplicate with some probability,
// sever a single link, jitter delays to reorder traffic. All of them
// are value types whose Link methods draw only from the execution's
// rng, so conditioned executions stay reproducible, and none allocate
// on the Link path (the send hot path is pinned at zero allocations).
//
// The network enforces the §2 clamp under every condition: a drop
// before GST is a delivery at GST+Δ, and a drop at or after GST is a
// true omission only under the network's OmissionBudget.

// Partition isolates processor groups from each other until Heal:
// messages crossing a group boundary before Heal are dropped (which the
// clamp converts into deliveries at GST+Δ when the partition heals at
// or before GST — the model-faithful split-brain). Intra-group traffic
// passes through Base. Build with NewPartition; processors not listed
// in any group form one implicit group together.
type Partition struct {
	Base network.LinkPolicy
	Heal types.Time
	// group is the group index per node; unlisted nodes share group 0.
	group []int32
}

// NewPartition builds a Partition over n processors healing at heal.
// Each groups[i] becomes an isolated island; unlisted processors form
// one implicit island together.
func NewPartition(base network.LinkPolicy, n int, heal types.Time, groups ...[]types.NodeID) *Partition {
	member := make([]int32, n)
	for gi, g := range groups {
		for _, id := range g {
			member[id] = int32(gi + 1)
		}
	}
	return &Partition{Base: base, Heal: heal, group: member}
}

// Link implements network.LinkPolicy.
func (p *Partition) Link(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) network.Verdict {
	if at < p.Heal && p.group[from] != p.group[to] {
		return network.Verdict{Drop: true}
	}
	return p.Base.Link(from, to, m, at, rng)
}

// Lossy drops each message independently with probability P. Until
// limits the loss to messages sent before that instant (zero means the
// whole run — post-GST the clamp degrades unfunded drops to Δ-late
// deliveries, so unbounded loss still satisfies the model).
type Lossy struct {
	Base  network.LinkPolicy
	P     float64
	Until types.Time
}

// Link implements network.LinkPolicy.
func (l Lossy) Link(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) network.Verdict {
	if (l.Until == 0 || at < l.Until) && rng.Float64() < l.P {
		return network.Verdict{Drop: true}
	}
	return l.Base.Link(from, to, m, at, rng)
}

// Duplicating delivers one extra copy of each message with probability
// P. The duplicate's delay is the original's plus a uniform draw in
// [0, Jitter] (Jitter 0 duplicates at the same requested delay, so
// under adversarial clamping both copies collapse onto the bound).
type Duplicating struct {
	Base   network.LinkPolicy
	P      float64
	Jitter time.Duration
}

// Link implements network.LinkPolicy.
func (d Duplicating) Link(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) network.Verdict {
	v := d.Base.Link(from, to, m, at, rng)
	if !v.Drop && rng.Float64() < d.P {
		v.Dup = true
		v.DupDelay = v.Delay
		if d.Jitter > 0 {
			v.DupDelay += time.Duration(rng.Int63n(int64(d.Jitter) + 1))
		}
	}
	return v
}

// Reordering adds an independent uniform delay in [0, Jitter] to every
// message, so later sends overtake earlier ones — the reorder axis of
// the adversary (delivery order is only constrained by the clamp).
type Reordering struct {
	Base   network.LinkPolicy
	Jitter time.Duration
}

// Link implements network.LinkPolicy.
func (r Reordering) Link(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) network.Verdict {
	v := r.Base.Link(from, to, m, at, rng)
	if !v.Drop && r.Jitter > 0 {
		v.Delay += time.Duration(rng.Int63n(int64(r.Jitter) + 1))
	}
	return v
}
