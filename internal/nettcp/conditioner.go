package nettcp

import (
	"math/rand"
	"sync"
	"time"

	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/types"
)

// Conditioner realizes the link-chaos primitives against real sockets:
// the same network.LinkPolicy values that condition the simulated
// network (internal/adversary: partitions, loss, duplication, reorder
// jitter) decide, per outbound message, whether the
// transport enqueues it now, later, twice, or not at all. A message held
// for later waits in its link's delay line: a slice ordered by release
// time behind one timer, so holding a message allocates nothing.
//
// The §2 partial-synchrony clamp (network.Clamp, the same value the
// simulated network resolves through) is honored on the release side: an
// envelope sent at local time t is handed to the write loop no later
// than max(GST, t) + Δ — a pre-GST "drop" becomes a release exactly at
// that bound (model-faithful loss), and a post-GST drop is a true
// omission only while the OmissionBudget allows it. On a real network
// the wire adds its own latency δ on top of the release time; that
// slack is the actual-delay the paper's optimistic-responsiveness
// claims are about, so the conditioner bounds what it controls (the
// adversarial delay) and leaves δ to the hardware.
//
// Churn is the down state (SetDown): while down the node neither sends
// nor receives, crash-recovery omission charged to the node itself.
// Slow replicas (SetProcDelays) add a per-recipient ingestion delay on
// top of the clamped release — the WAN straggler model, matching the
// simulator's post-clamp processing delays.
//
// A Conditioner belongs to one Transport. Its rng is guarded by the
// conditioner mutex, so verdicts are safe from concurrent senders;
// wall-clock scheduling makes conditioned TCP runs non-reproducible by
// nature (unlike the simulator's).
type Conditioner struct {
	link network.LinkPolicy
	now  func() types.Time

	mu    sync.Mutex
	clamp network.Clamp
	rng   *rand.Rand
	down  bool
	proc  []time.Duration
}

// NewConditioner builds a conditioner applying link under the clamp
// bound max(GST, t)+Δ. now supplies the node's local clock (use the
// node's clock.Wall so timestamps match the metrics observer); seed
// drives the policy's randomness. A nil link passes everything through
// unconditioned.
func NewConditioner(link network.LinkPolicy, gst time.Duration, delta time.Duration,
	budget network.OmissionBudget, now func() types.Time, seed int64) *Conditioner {
	return &Conditioner{
		link:  link,
		now:   now,
		clamp: network.Clamp{GST: types.Time(0).Add(gst), Delta: delta, Budget: budget},
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// SetDown flips the churn state: while down, outbound envelopes are
// dropped (counted per peer) and inbound deliveries are discarded.
func (c *Conditioner) SetDown(down bool) {
	c.mu.Lock()
	c.down = down
	c.mu.Unlock()
}

// SetProcDelays installs per-recipient processing delays (indexed by
// NodeID; missing entries are zero), mirroring the simulator's slow-
// replica model: the delay is added AFTER the §2 clamp, because node
// slowness is outside the network model — the adversary's delay is
// bounded by max(GST, t)+Δ, the straggler's ingestion lag rides on top.
func (c *Conditioner) SetProcDelays(proc []time.Duration) {
	c.mu.Lock()
	c.proc = append([]time.Duration(nil), proc...)
	c.mu.Unlock()
}

// procDelay returns the recipient's processing delay; callers hold c.mu.
func (c *Conditioner) procDelay(to types.NodeID) time.Duration {
	if int(to) < len(c.proc) {
		return c.proc[to]
	}
	return 0
}

// Omitted returns the number of true post-GST omissions granted against
// the budget so far.
func (c *Conditioner) Omitted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clamp.Omitted()
}

func (c *Conditioner) isDown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// apply runs one outbound message through the policy and realizes the
// clamped verdict against the peer queue: enqueue now, enqueue at the
// release time, duplicate, or omit.
func (c *Conditioner) apply(t *Transport, p *peer, to types.NodeID, m msg.Message) {
	now := c.now()
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		p.condDrops.Add(1)
		return
	}
	// The recipient's processing delay rides on top of every release,
	// clamped or not (the straggler model; see SetProcDelays).
	proc := c.procDelay(to)
	var v network.Verdict
	if c.link != nil {
		v = c.link.Link(t.self, to, m, now, c.rng)
	}
	at, dupAt, copies := c.clamp.Resolve(v, t.self, now)
	c.mu.Unlock()
	if copies == 0 {
		p.condDrops.Add(1)
		return
	}
	if c.release(t, p, m, at.Add(proc), now) {
		p.delayed.Add(1)
	}
	if copies == 2 {
		p.duplicates.Add(1)
		c.release(t, p, m, dupAt.Add(proc), now)
	}
}

// release enqueues m at local time at — immediately when at is not after
// now, else through the peer's delay line — and reports whether m was
// deferred.
func (c *Conditioner) release(t *Transport, p *peer, m msg.Message, at, now types.Time) bool {
	if at <= now {
		t.enqueue(p, m)
		return false
	}
	l := &p.line
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return true
	}
	// Insert behind every message due no later than at, so equal release
	// times keep send order. Under a fixed delay the new message is the
	// latest and this is an append.
	l.held = append(l.held, heldMsg{})
	i := len(l.held) - 1
	for ; i > l.head && l.held[i-1].at > at; i-- {
		l.held[i] = l.held[i-1]
	}
	l.held[i] = heldMsg{at: at, m: m}
	if i == l.head {
		// A new earliest release: re-arm the line's one timer for it.
		if l.timer == nil {
			l.timer = time.AfterFunc(time.Duration(at-now), func() { c.flush(t, p) })
		} else {
			l.timer.Reset(time.Duration(at - now))
		}
	}
	return true
}

// flush is the delay line's timer callback: it enqueues every held
// message whose release time has come, in order, and re-arms the timer
// for the next one.
func (c *Conditioner) flush(t *Transport, p *peer) {
	now := c.now()
	l := &p.line
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return
	}
	for l.head < len(l.held) && l.held[l.head].at <= now {
		t.enqueue(p, l.held[l.head].m)
		l.held[l.head] = heldMsg{}
		l.head++
	}
	switch {
	case l.head == len(l.held):
		l.held, l.head = l.held[:0], 0
	case l.head > 256 && l.head*2 >= len(l.held):
		n := copy(l.held, l.held[l.head:])
		clear(l.held[n:])
		l.held, l.head = l.held[:n], 0
	}
	if l.head < len(l.held) {
		l.timer.Reset(time.Duration(l.held[l.head].at - now))
	}
}

// delayLine holds one peer link's deferred messages in release order,
// behind one timer armed for the earliest. The conditioner fills it
// (release) and its timer drains it (flush); Transport.Close stops it.
type delayLine struct {
	mu      sync.Mutex
	held    []heldMsg   // held[head:] are pending, ordered by (at, send order)
	head    int         // held[:head] are released
	timer   *time.Timer // armed for held[head].at; nil until the first hold
	stopped bool
}

// heldMsg is one deferred message and its release time.
type heldMsg struct {
	at types.Time
	m  msg.Message
}

// stop cancels the line's pending releases: nothing it holds is enqueued
// after stop returns, and nothing waits for a release time.
func (l *delayLine) stop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stopped = true
	if l.timer != nil {
		l.timer.Stop()
	}
	l.held, l.head = nil, 0
}
