// Package replica assembles one processor: a pacemaker (the BVS protocol
// under study), the underlying view core that produces QCs, a local clock,
// and the message router between them. The same assembly runs over the
// simulator and over TCP.
package replica

import (
	"lumiere/internal/hotstuff"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/types"
)

// Engine is the underlying protocol a replica runs: the plain view core
// for pure view-synchronization experiments, or chained HotStuff for full
// SMR. It is driven by the pacemaker and consumes the consensus traffic.
type Engine interface {
	pacemaker.Driver
	Handle(from types.NodeID, m msg.Message)
}

// Replica is one processor.
type Replica struct {
	ID      types.NodeID
	PM      pacemaker.Pacemaker
	Core    Engine
	Crashed bool

	started bool
	pending []pendingMsg
}

type pendingMsg struct {
	from types.NodeID
	m    msg.Message
}

var _ network.Handler = (*Replica)(nil)

// New assembles a replica from its pacemaker and consensus engine.
func New(id types.NodeID, pm pacemaker.Pacemaker, core Engine) *Replica {
	return &Replica{ID: id, PM: pm, Core: core}
}

// Start boots the protocol and replays any messages that arrived before
// the processor joined (the model lets processors join at arbitrary times
// before GST; earlier messages are delivered at join).
func (r *Replica) Start() {
	if r.Crashed || r.started {
		return
	}
	r.started = true
	r.PM.Start()
	for _, p := range r.pending {
		r.route(p.from, p.m)
	}
	r.pending = nil
}

// Deliver implements network.Handler.
func (r *Replica) Deliver(from types.NodeID, m msg.Message) {
	if r.Crashed {
		return
	}
	if !r.started {
		r.pending = append(r.pending, pendingMsg{from: from, m: m})
		return
	}
	r.route(from, m)
}

// route dispatches by message kind: underlying-protocol traffic and
// client requests to the engine (which verifies QCs once and surfaces
// them to the pacemaker via its callback), everything else to the
// pacemaker. A request is delivered only if its ID lies in its sender's
// Submit namespace, so no peer can claim another replica's next IDs and
// have the ID dedupe drop that replica's own commands.
func (r *Replica) route(from types.NodeID, m msg.Message) {
	switch m.Kind() {
	case msg.KindProposal, msg.KindVote, msg.KindQC, msg.KindBlockFetch, msg.KindBlockResp:
		r.Core.Handle(from, m)
	case msg.KindRequest:
		if hotstuff.Submitter(m.(*msg.Request).ID) == from {
			r.Core.Handle(from, m)
		}
	default:
		r.PM.Handle(from, m)
	}
}
