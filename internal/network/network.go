// Package network defines the transport abstraction shared by the
// simulator and the TCP runtime, and implements the simulated
// partial-synchrony network of §2: the adversary chooses GST and, per
// message, a delay, drop, or duplication (a LinkPolicy), subject to the
// constraint that a message sent at time t arrives by max{GST, t} + Δ.
// Pre-GST drops are therefore deliveries at GST+Δ; true post-GST
// omission requires an explicit OmissionBudget.
package network

import (
	"fmt"
	"math/rand"
	"time"

	"lumiere/internal/msg"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// Endpoint is a node's handle on the network.
type Endpoint interface {
	// ID returns the owning node.
	ID() types.NodeID
	// Send transmits m to a single processor. Sends to self are
	// delivered at the same instant (the paper's convention).
	Send(to types.NodeID, m msg.Message)
	// Broadcast transmits m to all processors including the sender;
	// the self-copy is delivered at the same instant (§4).
	Broadcast(m msg.Message)
}

// Handler consumes delivered messages.
type Handler interface {
	Deliver(from types.NodeID, m msg.Message)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from types.NodeID, m msg.Message)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(from types.NodeID, m msg.Message) { f(from, m) }

// Observer is notified of network activity; metrics and tracing hook in
// here.
type Observer interface {
	// OnSend fires once per point-to-point transmission (a broadcast
	// to n processors fires n−1 times; self-deliveries are not
	// transmissions).
	OnSend(from, to types.NodeID, m msg.Message, at types.Time, honestSender bool)
	// OnDeliver fires when the message reaches its destination.
	OnDeliver(from, to types.NodeID, m msg.Message, at types.Time)
}

// DelayPolicy is the adversary's control over message delivery times. The
// returned delay is a request: the network clamps actual delivery into the
// partial-synchrony window [now, max(GST, now)+Δ].
type DelayPolicy interface {
	Delay(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) time.Duration
}

// DelayFunc adapts a function to DelayPolicy.
type DelayFunc func(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) time.Duration

// Delay implements DelayPolicy.
func (f DelayFunc) Delay(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) time.Duration {
	return f(from, to, m, at, rng)
}

// Verdict is a link's decision for one point-to-point transmission. The
// zero Verdict delivers immediately (subject to the clamp).
type Verdict struct {
	// Delay is the requested delivery delay; the network clamps actual
	// delivery into the partial-synchrony window [t, max(GST, t)+Δ].
	Delay time.Duration
	// Drop requests omission. The model constrains what the network
	// grants: a message sent before GST may be withheld, but must still
	// be delivered by GST+Δ, so pre-GST drops become deliveries exactly
	// at the bound (model-faithful "loss"). At or after GST a drop is a
	// true omission only while the network's OmissionBudget allows it;
	// once the budget is exhausted (or absent — the default) the drop
	// degrades to the worst delay the model permits, delivery at t+Δ.
	// A dropped message is never also duplicated.
	Drop bool
	// Dup requests one extra copy of the message, delivered at the clamp
	// of DupDelay. Duplicates are the network's doing, not the
	// sender's: they fire OnDeliver but not OnSend, so honest
	// communication accounting is unaffected.
	Dup bool
	// DupDelay is the extra copy's requested delay (clamped
	// independently of the original's).
	DupDelay time.Duration
}

// LinkPolicy generalizes DelayPolicy into the adversary's full control
// over one transmission: per (from, to, send time) it may delay, drop,
// or duplicate the message — and, by assigning non-monotone delays,
// reorder traffic. Implementations must be pure functions of their
// arguments and rng draws so executions stay reproducible, and must not
// allocate on the Link path (the send hot path is pinned at zero
// allocations). Composable condition primitives (partitions, loss,
// duplication, flaky links) live in internal/adversary.
type LinkPolicy interface {
	Link(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) Verdict
}

// LinkFunc adapts a function to LinkPolicy.
type LinkFunc func(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) Verdict

// Link implements LinkPolicy.
func (f LinkFunc) Link(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) Verdict {
	return f(from, to, m, at, rng)
}

// DelayLink adapts a DelayPolicy to a LinkPolicy that only delays.
type DelayLink struct{ P DelayPolicy }

// Link implements LinkPolicy.
func (l DelayLink) Link(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) Verdict {
	return Verdict{Delay: l.P.Delay(from, to, m, at, rng)}
}

// OmissionBudget authorizes true post-GST message omission. The §2 model
// lets the adversary lose pre-GST traffic for free (the clamp converts
// those drops into deliveries at GST+Δ), but after GST honest-to-honest
// messages must arrive within Δ — omission is a fault. The budget makes
// that fault explicit and bounded so the harness can account it against
// f. The zero value permits no post-GST omission.
type OmissionBudget struct {
	// MaxMessages caps the total number of post-GST omissions granted.
	MaxMessages int
	// MaxSenders caps the distinct senders whose post-GST messages may
	// be omitted (0 = no per-sender cap). The harness requires
	// MaxSenders ≤ f: omission post-GST is a processor fault, and only
	// f processors may be faulty.
	MaxSenders int
}

// Clamp is the §2 model as a value: it turns a link's Verdict into the
// delivery schedule the model permits and keeps the omission budget's
// ledger. The simulated Net and the TCP runtime's socket-level
// conditioner both resolve every transmission through one, so the clamp
// bound, the drop-degrades-to-bound rule and the budget charge exist
// once. A Clamp is not safe for concurrent use.
type Clamp struct {
	// GST and Delta are the model's stabilization time and bound Δ.
	GST   types.Time
	Delta time.Duration
	// Budget authorizes true post-GST omission (zero: none).
	Budget OmissionBudget

	omitted int64
	charged []bool // senders charged against Budget.MaxSenders; grows on demand
	senders int
}

// Omitted returns the number of post-GST omissions granted so far.
func (c *Clamp) Omitted() int64 { return c.omitted }

// Resolve clamps one transmission sent by from at time now: copies is 0
// (a granted post-GST omission), 1, or 2 (with a network duplicate at
// dupAt), and every copy lands in [now, max(GST, now)+Δ]. A drop is a
// true omission only post-GST while the budget funds it; a pre-GST
// "loss" or an unfunded post-GST drop degrades to the worst delay the
// model permits, delivery exactly at the bound.
func (c *Clamp) Resolve(v Verdict, from types.NodeID, now types.Time) (at, dupAt types.Time, copies int) {
	bound := types.MaxTime(c.GST, now).Add(c.Delta)
	if v.Drop {
		if now >= c.GST && c.allowOmission(from) {
			return 0, 0, 0
		}
		return bound, 0, 1
	}
	at = types.MinTime(now.Add(max(v.Delay, 0)), bound)
	if v.Dup {
		return at, types.MinTime(now.Add(max(v.DupDelay, 0)), bound), 2
	}
	return at, 0, 1
}

// allowOmission charges one post-GST omission by from against the
// budget, reporting whether it was granted.
func (c *Clamp) allowOmission(from types.NodeID) bool {
	if c.omitted >= int64(c.Budget.MaxMessages) {
		return false
	}
	for int(from) >= len(c.charged) {
		c.charged = append(c.charged, false)
	}
	if !c.charged[from] {
		if c.Budget.MaxSenders > 0 && c.senders >= c.Budget.MaxSenders {
			return false
		}
		c.charged[from] = true
		c.senders++
	}
	c.omitted++
	return true
}

// ---------------------------------------------------------------------------
// Standard delay policies
// ---------------------------------------------------------------------------

// Fixed delays every message by exactly D (the "actual bound δ" of §2).
type Fixed struct{ D time.Duration }

// Delay implements DelayPolicy.
func (p Fixed) Delay(_, _ types.NodeID, _ msg.Message, _ types.Time, _ *rand.Rand) time.Duration {
	return p.D
}

// Uniform delays every message uniformly in [Min, Max].
type Uniform struct{ Min, Max time.Duration }

// Delay implements DelayPolicy.
func (p Uniform) Delay(_, _ types.NodeID, _ msg.Message, _ types.Time, rng *rand.Rand) time.Duration {
	if p.Max <= p.Min {
		return p.Min
	}
	return p.Min + time.Duration(rng.Int63n(int64(p.Max-p.Min)))
}

// Adversarial requests an unbounded delay for every message, so delivery
// always lands exactly on the partial-synchrony bound max(GST, t)+Δ — the
// worst case the model permits.
type Adversarial struct{}

// Delay implements DelayPolicy.
func (Adversarial) Delay(_, _ types.NodeID, _ msg.Message, _ types.Time, _ *rand.Rand) time.Duration {
	return time.Duration(1<<62 - 1)
}

// PreGSTChaos delays messages sent before GST as long as the model allows
// (arrival at GST+Δ) and uses After for messages sent at or after GST.
// This models the unbounded asynchrony before stabilization.
type PreGSTChaos struct {
	GST   types.Time
	After DelayPolicy
}

// Delay implements DelayPolicy.
func (p PreGSTChaos) Delay(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) time.Duration {
	if at < p.GST {
		return time.Duration(1<<62 - 1) // clamped to GST+Δ by the network
	}
	return p.After.Delay(from, to, m, at, rng)
}

// Targeted applies Slow to messages to or from nodes in Targets and Base
// to everything else. It models an adversary focusing delays on specific
// processors (e.g. the next honest leader).
type Targeted struct {
	Base    DelayPolicy
	Slow    DelayPolicy
	Targets map[types.NodeID]bool
}

// Delay implements DelayPolicy.
func (p Targeted) Delay(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) time.Duration {
	if p.Targets[from] || p.Targets[to] {
		return p.Slow.Delay(from, to, m, at, rng)
	}
	return p.Base.Delay(from, to, m, at, rng)
}

// Phased switches policies at a point in time (by send time): Before
// applies to messages sent strictly before Switch, After to the rest.
// Nest Phased values to build multi-phase adversary schedules.
type Phased struct {
	Switch types.Time
	Before DelayPolicy
	After  DelayPolicy
}

// Delay implements DelayPolicy.
func (p Phased) Delay(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) time.Duration {
	if at < p.Switch {
		return p.Before.Delay(from, to, m, at, rng)
	}
	return p.After.Delay(from, to, m, at, rng)
}

// ---------------------------------------------------------------------------
// Simulated network
// ---------------------------------------------------------------------------

// Net is the simulated partial-synchrony network.
type Net struct {
	sched     *sim.Scheduler
	cfg       types.Config
	clamp     Clamp // the §2 model: GST, Δ and the omission ledger
	link      LinkPolicy
	handlers  []Handler
	honest    []bool
	killed    []bool
	observers []Observer
	stopped   bool

	// procDelay is the per-recipient straggler model: node i ingests
	// every network message procDelay[i] after its clamped delivery
	// time. Nil means no stragglers. See SetProcDelays.
	procDelay []time.Duration

	// perRecipient forces broadcast back onto the one-heap-event-per-
	// recipient path instead of multicast events. The two are
	// observationally identical (the equivalence suite diffs whole
	// tables across both); the toggle exists for those tests and for
	// bisecting, not for production use.
	perRecipient bool
}

// NewNet creates a network for cfg.N nodes. gst is the global
// stabilization time; policy chooses per-message delays (clamped to the
// model). All nodes start marked honest; use SetByzantine for corruptions.
// The network registers itself as the scheduler's payload sink: message
// deliveries flow through sim.SendAt rather than per-send closures.
func NewNet(sched *sim.Scheduler, cfg types.Config, gst types.Time, policy DelayPolicy) *Net {
	if policy == nil {
		policy = Fixed{D: cfg.Delta / 10}
	}
	return NewNetLink(sched, cfg, gst, DelayLink{P: policy})
}

// NewNetLink creates a network driven by a full link-condition policy:
// per-message delay, drop, and duplication, all clamped to the §2 model
// (see Verdict for the exact semantics). NewNet is the delay-only
// convenience wrapper.
func NewNetLink(sched *sim.Scheduler, cfg types.Config, gst types.Time, link LinkPolicy) *Net {
	if link == nil {
		link = DelayLink{P: Fixed{D: cfg.Delta / 10}}
	}
	honest := make([]bool, cfg.N)
	for i := range honest {
		honest[i] = true
	}
	n := &Net{
		sched:    sched,
		cfg:      cfg,
		clamp:    Clamp{GST: gst, Delta: cfg.Delta},
		link:     link,
		handlers: make([]Handler, cfg.N),
		honest:   honest,
		killed:   make([]bool, cfg.N),
	}
	sched.SetSink(n.deliverPayload)
	return n
}

// Reset re-arms the network for a fresh execution on the same scheduler,
// reusing the per-node handler, honesty, liveness and omission-charge
// slots and the observer slice's backing storage. Everything mutable is
// cleared: all nodes return to honest and alive, observers are detached,
// the omission budget and its charges are zeroed, and the stop flag is
// lifted. The MsgSink registration with the scheduler persists — one
// network per scheduler for both of their lifetimes. A nil link falls
// back to Fixed{Δ/10}, as in NewNetLink.
func (n *Net) Reset(cfg types.Config, gst types.Time, link LinkPolicy) {
	if link == nil {
		link = DelayLink{P: Fixed{D: cfg.Delta / 10}}
	}
	n.cfg, n.link = cfg, link
	n.clamp = Clamp{GST: gst, Delta: cfg.Delta, charged: n.clamp.charged[:0]}
	if cap(n.handlers) < cfg.N {
		n.handlers = make([]Handler, cfg.N)
		n.honest = make([]bool, cfg.N)
		n.killed = make([]bool, cfg.N)
	}
	n.handlers = n.handlers[:cfg.N]
	n.honest = n.honest[:cfg.N]
	n.killed = n.killed[:cfg.N]
	for i := range n.handlers {
		n.handlers[i] = nil
		n.honest[i] = true
		n.killed[i] = false
	}
	n.observers = n.observers[:0]
	n.stopped = false
	n.perRecipient = false
	n.procDelay = nil
}

// SetProcDelays installs the straggler model: node i ingests every
// network message procDelay[i] after its clamped delivery time (zero =
// a fast node, the default). The delay models the node's own processing
// lag, not the adversary's network — it is applied after the §2 clamp
// (and so may push an ingestion past GST+Δ without violating the
// model), and self-deliveries, which never cross the network, stay
// instantaneous. Pass nil to clear; Reset also clears it.
func (n *Net) SetProcDelays(d []time.Duration) {
	if d != nil && len(d) != n.cfg.N {
		panic(fmt.Sprintf("network: %d proc delays for n=%d", len(d), n.cfg.N))
	}
	n.procDelay = d
}

// SetPerRecipientBroadcast toggles the legacy broadcast representation:
// one heap event per recipient rather than one multicast event per
// distinct delivery time. Reset clears it.
func (n *Net) SetPerRecipientBroadcast(on bool) { n.perRecipient = on }

// deliverPayload is the scheduler's MsgSink: it fires when a scheduled
// transmission reaches its delivery time.
func (n *Net) deliverPayload(from, to types.NodeID, m any) {
	n.dispatch(from, to, m.(msg.Message))
}

// GST returns the network's global stabilization time.
func (n *Net) GST() types.Time { return n.clamp.GST }

// Attach registers the handler for a node and returns its endpoint.
func (n *Net) Attach(id types.NodeID, h Handler) Endpoint {
	if int(id) < 0 || int(id) >= len(n.handlers) {
		panic(fmt.Sprintf("network: attach unknown node %v", id))
	}
	n.handlers[id] = h
	return &endpoint{net: n, id: id}
}

// Observe registers an observer for all traffic.
func (n *Net) Observe(o Observer) { n.observers = append(n.observers, o) }

// SetByzantine marks a node as Byzantine for accounting purposes (its
// sends are not charged to honest communication complexity).
func (n *Net) SetByzantine(id types.NodeID) { n.honest[id] = false }

// Honest reports whether a node is marked honest.
func (n *Net) Honest(id types.NodeID) bool { return n.honest[id] }

// Stop makes the network drop all future traffic (used to cleanly end a
// run without draining protocol timers).
func (n *Net) Stop() { n.stopped = true }

// Kill crashes a node from now on: its sends are dropped and nothing is
// delivered to it. Used for Byzantine processors that behave honestly
// until a chosen moment (the classic desynchronization adversary).
func (n *Net) Kill(id types.NodeID) { n.killed[id] = true }

// Revive undoes Kill: the node sends and receives again from now on,
// with whatever state it kept. Messages addressed to it while it was
// down are lost — crash-recovery omission, accounted as the node's own
// fault (it is one of the ≤ f corrupted processors), not against the
// network's OmissionBudget.
func (n *Net) Revive(id types.NodeID) { n.killed[id] = false }

// SetOmissionBudget authorizes true post-GST omission (see
// OmissionBudget). Call before the execution starts; the budget is
// consumed as drops are granted.
func (n *Net) SetOmissionBudget(b OmissionBudget) { n.clamp.Budget = b }

// Omitted returns the number of post-GST omissions charged against the
// budget so far.
func (n *Net) Omitted() int64 { return n.clamp.Omitted() }

func (n *Net) send(from, to types.NodeID, m msg.Message) {
	if n.stopped || n.killed[from] {
		return
	}
	if int(to) < 0 || int(to) >= len(n.handlers) {
		panic(fmt.Sprintf("network: send to unknown node %v", to))
	}
	n.sendTo(n.sched.Now(), from, to, m)
}

// broadcast transmits m from one node to all nodes. The default path
// batches the fan-out into one multicast event per distinct delivery
// time: verdicts are still resolved per recipient, at send time, in
// recipient order — so OnSend observation, rng draw order and delivery
// order are exactly those of the per-recipient path — but an
// n-recipient broadcast whose deliveries share a clamped time costs one
// heap insertion instead of n.
func (n *Net) broadcast(from types.NodeID, m msg.Message) {
	if n.stopped || n.killed[from] {
		return
	}
	now := n.sched.Now()
	if n.perRecipient {
		n.sched.Reserve(len(n.handlers))
		for to := range n.handlers {
			n.sendTo(now, from, types.NodeID(to), m)
		}
		return
	}
	mc := n.sched.Multicast(from, m)
	for to := range n.handlers {
		tid := types.NodeID(to)
		if tid == from {
			// Self-delivery at the same instant, not a network message.
			mc.Add(tid, now)
			continue
		}
		at, dupAt, copies := n.resolve(now, from, tid, m)
		if copies == 0 {
			continue
		}
		mc.Add(tid, at)
		if copies == 2 {
			mc.Add(tid, dupAt)
		}
	}
	mc.Commit()
}

// resolve runs the send-time half of one point-to-point transmission —
// OnSend observation plus the link policy's verdict — and clamps the
// outcome to the §2 model (see Clamp.Resolve for at, dupAt and copies).
// The recipient's straggler lag is added outside the clamp.
func (n *Net) resolve(now types.Time, from, to types.NodeID, m msg.Message) (at, dupAt types.Time, copies int) {
	n.observeSend(from, to, m, now)
	at, dupAt, copies = n.clamp.Resolve(n.link.Link(from, to, m, now, n.sched.Rand()), from, now)
	if n.procDelay != nil {
		at, dupAt = at.Add(n.procDelay[to]), dupAt.Add(n.procDelay[to])
	}
	return at, dupAt, copies
}

// sendTo schedules one point-to-point transmission (shared by send and
// the legacy broadcast path; stop/kill checks happen in the callers).
func (n *Net) sendTo(now types.Time, from, to types.NodeID, m msg.Message) {
	if from == to {
		// Self-delivery at the same instant, not a network message.
		n.sched.SendAt(now, from, to, m)
		return
	}
	at, dupAt, copies := n.resolve(now, from, to, m)
	if copies == 0 {
		return
	}
	n.sched.SendAt(at, from, to, m)
	if copies == 2 {
		n.sched.SendAt(dupAt, from, to, m)
	}
}

// observeSend fans OnSend out to the observers, keeping the common
// zero/one observer cases free of slice iteration.
func (n *Net) observeSend(from, to types.NodeID, m msg.Message, now types.Time) {
	switch len(n.observers) {
	case 0:
	case 1:
		n.observers[0].OnSend(from, to, m, now, n.honest[from])
	default:
		for _, o := range n.observers {
			o.OnSend(from, to, m, now, n.honest[from])
		}
	}
}

// observeDeliver mirrors observeSend for the delivery side.
func (n *Net) observeDeliver(from, to types.NodeID, m msg.Message, now types.Time) {
	switch len(n.observers) {
	case 0:
	case 1:
		n.observers[0].OnDeliver(from, to, m, now)
	default:
		for _, o := range n.observers {
			o.OnDeliver(from, to, m, now)
		}
	}
}

func (n *Net) dispatch(from, to types.NodeID, m msg.Message) {
	if n.stopped || n.killed[to] {
		return
	}
	h := n.handlers[to]
	if h == nil {
		return
	}
	n.observeDeliver(from, to, m, n.sched.Now())
	h.Deliver(from, m)
}

type endpoint struct {
	net *Net
	id  types.NodeID
}

var _ Endpoint = (*endpoint)(nil)

func (e *endpoint) ID() types.NodeID { return e.id }

func (e *endpoint) Send(to types.NodeID, m msg.Message) { e.net.send(e.id, to, m) }

func (e *endpoint) Broadcast(m msg.Message) { e.net.broadcast(e.id, m) }
