package nettcp

import (
	"math/rand"
	"sync"
	"time"

	"lumiere/internal/network"
	"lumiere/internal/types"
)

// Conditioner realizes the link-chaos primitives against real sockets:
// the same network.LinkPolicy values that condition the simulated
// network (internal/adversary: partitions, loss, duplication, flaky
// links, reorder jitter) decide, per outbound envelope, whether the
// transport enqueues it now, later, twice, or not at all.
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

	mu      sync.Mutex
	clamp   network.Clamp
	rng     *rand.Rand
	down    bool
	proc    []time.Duration
	timers  map[*time.Timer]struct{}
	stopped bool
}

// NewConditioner builds a conditioner applying link under the clamp
// bound max(GST, t)+Δ. now supplies the node's local clock (use the
// node's clock.Wall so timestamps match the metrics observer); seed
// drives the policy's randomness. A nil link passes everything through
// unconditioned.
func NewConditioner(link network.LinkPolicy, gst time.Duration, delta time.Duration,
	budget network.OmissionBudget, now func() types.Time, seed int64) *Conditioner {
	return &Conditioner{
		link:   link,
		now:    now,
		clamp:  network.Clamp{GST: types.Time(0).Add(gst), Delta: delta, Budget: budget},
		rng:    rand.New(rand.NewSource(seed)),
		timers: make(map[*time.Timer]struct{}),
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

// apply runs one outbound envelope through the policy and realizes the
// clamped verdict against the peer queue: enqueue now, enqueue at the
// release time, duplicate, or omit.
func (c *Conditioner) apply(t *Transport, p *peer, to types.NodeID, env envelope) {
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
		v = c.link.Link(t.self, to, env.Msg, now, c.rng)
	}
	at, dupAt, copies := c.clamp.Resolve(v, t.self, now)
	c.mu.Unlock()
	if copies == 0 {
		p.condDrops.Add(1)
		return
	}
	if c.release(t, p, env, at.Sub(now)+proc) {
		p.delayed.Add(1)
	}
	if copies == 2 {
		p.duplicates.Add(1)
		c.release(t, p, env, dupAt.Sub(now)+proc)
	}
}

// release enqueues env after d — immediately when d is not positive —
// tracking the timer so Close can cancel pending releases, and reports
// whether the envelope was deferred.
func (c *Conditioner) release(t *Transport, p *peer, env envelope, d time.Duration) bool {
	if d <= 0 {
		t.enqueue(p, env)
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return true
	}
	var tm *time.Timer
	tm = time.AfterFunc(d, func() {
		c.mu.Lock()
		delete(c.timers, tm)
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		t.enqueue(p, env)
	})
	c.timers[tm] = struct{}{}
	return true
}

// stop cancels all pending releases (called by Transport.Close).
func (c *Conditioner) stop() {
	c.mu.Lock()
	c.stopped = true
	for tm := range c.timers {
		tm.Stop()
	}
	clear(c.timers)
	c.mu.Unlock()
}
