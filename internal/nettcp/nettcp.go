// Package nettcp runs the protocol stack over real TCP connections: the
// "practical" deployment path. The same protocol state machines that run
// on the simulator run here unchanged — nettcp provides a
// network.Endpoint over TCP (gob-encoded envelopes) and pairs with
// clock.Wall, whose node mutex serializes message deliveries with timer
// callbacks exactly as the simulator's single thread does.
//
// Parity with the simulated runtime (see DESIGN.md §7):
//
//   - Self-sends are delivered through a single tracked FIFO worker, so
//     a node's messages to itself arrive in send order (the simulator's
//     same-instant self-delivery convention) and Close really quiesces:
//     after it returns no handler call is in flight.
//   - Every wire transmission can be observed by a network.Observer
//     (WithObserver); the metrics.Collector counts TCP sends in exactly
//     the per-kind words model the simulator uses, so wall-clock words
//     tables are directly comparable to simulated ones.
//   - A Conditioner (WithConditioner) realizes the link-chaos
//     primitives — delay, loss, duplication, partitions, churn — at the
//     socket layer, honoring the §2 partial-synchrony clamp.
//
// Transport-level authentication is delegated to the protocol layer: all
// protocol messages carry ed25519 signatures (crypto.Ed25519Suite), so a
// peer lying about the envelope sender cannot forge signed content.
package nettcp

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/types"
)

func init() {
	gob.Register(&msg.ViewMsg{})
	gob.Register(&msg.VC{})
	gob.Register(&msg.EpochViewMsg{})
	gob.Register(&msg.EC{})
	gob.Register(&msg.TC{})
	gob.Register(&msg.Proposal{})
	gob.Register(&msg.Vote{})
	gob.Register(&msg.QC{})
	gob.Register(&msg.Wish{})
	gob.Register(&msg.Timeout{})
	gob.Register(&msg.Request{})
	gob.Register(&msg.BlockFetch{})
	gob.Register(&msg.BlockResp{})
}

// envelope is the wire frame.
type envelope struct {
	From types.NodeID
	Msg  msg.Message
}

// PeerStats counts one outbound peer link's traffic. All counters are
// cumulative since Start.
type PeerStats struct {
	// Enqueued is the number of envelopes accepted into the peer queue.
	Enqueued int64
	// Sent is the number of envelopes written to the wire.
	Sent int64
	// QueueDrops counts envelopes dropped because the peer queue was
	// full (persistent backpressure: the peer is effectively crashed).
	QueueDrops int64
	// CondDrops counts envelopes the link conditioner omitted (true
	// post-GST omissions under its budget, or the node being down).
	CondDrops int64
	// Delayed counts envelopes the conditioner held back before
	// enqueueing (including pre-GST "losses" released at GST+Δ).
	Delayed int64
	// Duplicates counts extra copies the conditioner enqueued.
	Duplicates int64
	// Redials counts successful reconnects after a connection was lost.
	Redials int64
	// DialFails counts failed dial attempts.
	DialFails int64
	// Resends counts envelopes re-encoded on a fresh connection after a
	// write error — each is a possible wire duplicate, since the peer
	// may have received the failed write's bytes.
	Resends int64
	// WriteDrops counts envelopes dropped after exhausting their write
	// attempts (the bounded-retry budget of the write loop).
	WriteDrops int64
}

// Stats is a snapshot of a Transport's counters. A misbehaving or dead
// peer is visible here (QueueDrops, DialFails, WriteDrops climbing)
// where it would otherwise be indistinguishable from a healthy idle one.
type Stats struct {
	// Peers holds the outbound counters per peer.
	Peers map[types.NodeID]PeerStats
	// SelfDelivered counts self-sends handed to the handler.
	SelfDelivered int64
	// Delivered counts remote messages handed to the handler.
	Delivered int64
	// DecodeErrors counts inbound gob streams abandoned on a decode
	// error (the connection is closed; the peer re-dials).
	DecodeErrors int64
}

// peer is one outbound link's state.
type peer struct {
	addr  string
	queue chan envelope

	enqueued   atomic.Int64
	sent       atomic.Int64
	queueDrops atomic.Int64
	condDrops  atomic.Int64
	delayed    atomic.Int64
	duplicates atomic.Int64
	redials    atomic.Int64
	dialFails  atomic.Int64
	resends    atomic.Int64
	writeDrops atomic.Int64
}

func (p *peer) stats() PeerStats {
	return PeerStats{
		Enqueued:   p.enqueued.Load(),
		Sent:       p.sent.Load(),
		QueueDrops: p.queueDrops.Load(),
		CondDrops:  p.condDrops.Load(),
		Delayed:    p.delayed.Load(),
		Duplicates: p.duplicates.Load(),
		Redials:    p.redials.Load(),
		DialFails:  p.dialFails.Load(),
		Resends:    p.resends.Load(),
		WriteDrops: p.writeDrops.Load(),
	}
}

// Transport is one node's TCP fabric.
type Transport struct {
	self    types.NodeID
	addrs   []string
	nodeMu  *sync.Mutex // the node's big lock (shared with clock.Wall)
	handler network.Handler

	observer network.Observer // optional: wire-transmission accounting
	now      func() types.Time
	cond     *Conditioner // optional: socket-level link chaos

	ln     net.Listener
	peers  map[types.NodeID]*peer
	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once

	// Self-send FIFO: a single tracked worker delivers self-sends in
	// send order (the simulator's same-instant self-delivery), and
	// Close waits for it, so no handler call survives Close.
	selfMu   sync.Mutex
	selfWake *sync.Cond
	selfQ    []msg.Message
	selfHead int
	closing  bool

	selfDelivered atomic.Int64
	delivered     atomic.Int64
	decodeErrors  atomic.Int64
}

const peerQueueSize = 4096

// writeAttempts bounds how many times the write loop tries to get one
// envelope onto the wire (each attempt is one dial-if-needed + one
// encode). Beyond it the envelope is dropped and counted — protocols
// under partial synchrony tolerate loss windows and certificates are
// re-derivable — instead of retrying (and possibly duplicating) forever.
const writeAttempts = 3

// Option configures a Transport.
type Option func(*Transport)

// WithObserver registers an observer for wire traffic. OnSend fires once
// per point-to-point transmission at enqueue time (self-deliveries are
// not transmissions, matching the simulator), stamped with now(); OnDeliver
// fires under the node lock when the handler receives the message. A
// metrics.Collector here counts TCP traffic in the same per-kind words
// model as the simulated network.
func WithObserver(o network.Observer, now func() types.Time) Option {
	return func(t *Transport) {
		t.observer = o
		t.now = now
	}
}

// WithConditioner installs a socket-level link conditioner on the
// outbound path (see Conditioner).
func WithConditioner(c *Conditioner) Option {
	return func(t *Transport) { t.cond = c }
}

// New creates a transport for node self among addrs (index = NodeID).
// handler receives deliveries under nodeMu. The self-send worker starts
// immediately (self-delivery needs no listener); wire loops start with
// Start. Close must not be called with nodeMu held.
func New(self types.NodeID, addrs []string, nodeMu *sync.Mutex, handler network.Handler, opts ...Option) *Transport {
	t := &Transport{
		self:    self,
		addrs:   addrs,
		nodeMu:  nodeMu,
		handler: handler,
		peers:   make(map[types.NodeID]*peer),
		closed:  make(chan struct{}),
	}
	t.selfWake = sync.NewCond(&t.selfMu)
	for i, a := range addrs {
		if types.NodeID(i) == self {
			continue
		}
		p := &peer{addr: a, queue: make(chan envelope, peerQueueSize)}
		t.peers[types.NodeID(i)] = p
	}
	for _, opt := range opts {
		opt(t)
	}
	t.wg.Add(1)
	go t.selfLoop()
	return t
}

// Start listens on the node's own address and starts peer writers.
func (t *Transport) Start() error {
	ln, err := net.Listen("tcp", t.addrs[t.self])
	if err != nil {
		return fmt.Errorf("nettcp: listen %s: %w", t.addrs[t.self], err)
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	for id, p := range t.peers {
		t.wg.Add(1)
		go t.writeLoop(id, p)
	}
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *Transport) Addr() string {
	if t.ln == nil {
		return t.addrs[t.self]
	}
	return t.ln.Addr().String()
}

// Close shuts the transport down and waits for its goroutines, including
// the self-send worker: when Close returns, no handler call is in flight
// and none will follow. Do not call with the node lock held (the workers
// need it to finish their current delivery).
func (t *Transport) Close() {
	t.once.Do(func() {
		close(t.closed)
		if t.ln != nil {
			t.ln.Close()
		}
		if t.cond != nil {
			t.cond.stop()
		}
		t.selfMu.Lock()
		t.closing = true
		t.selfMu.Unlock()
		t.selfWake.Signal()
	})
	t.wg.Wait()
}

// ID implements network.Endpoint.
func (t *Transport) ID() types.NodeID { return t.self }

// Stats returns a snapshot of the transport's counters.
func (t *Transport) Stats() Stats {
	s := Stats{
		Peers:         make(map[types.NodeID]PeerStats, len(t.peers)),
		SelfDelivered: t.selfDelivered.Load(),
		Delivered:     t.delivered.Load(),
		DecodeErrors:  t.decodeErrors.Load(),
	}
	for id, p := range t.peers {
		s.Peers[id] = p.stats()
	}
	return s
}

// Send implements network.Endpoint. Self-sends go through the tracked
// FIFO worker; peer sends are observed, conditioned, and enqueued to the
// peer's write loop.
func (t *Transport) Send(to types.NodeID, m msg.Message) {
	if to == t.self {
		t.selfMu.Lock()
		if t.closing {
			t.selfMu.Unlock()
			return
		}
		t.selfQ = append(t.selfQ, m)
		t.selfMu.Unlock()
		t.selfWake.Signal()
		return
	}
	p, ok := t.peers[to]
	if !ok {
		return
	}
	// The send is observed before the conditioner's verdict, exactly as
	// the simulated network observes before the link policy: a dropped
	// message was still sent by the protocol.
	if t.observer != nil {
		t.observer.OnSend(t.self, to, m, t.wallNow(), true)
	}
	if t.cond != nil {
		t.cond.apply(t, p, to, envelope{From: t.self, Msg: m})
		return
	}
	t.enqueue(p, envelope{From: t.self, Msg: m})
}

// wallNow stamps observer events; without a clock it degrades to zero
// timestamps (counters still aggregate correctly).
func (t *Transport) wallNow() types.Time {
	if t.now == nil {
		return 0
	}
	return t.now()
}

// enqueue hands an envelope to the peer's write loop, dropping (and
// counting) on a full queue.
func (t *Transport) enqueue(p *peer, env envelope) {
	select {
	case p.queue <- env:
		p.enqueued.Add(1)
	case <-t.closed:
	default:
		// Queue full: drop, visibly. Partial-synchrony protocols
		// tolerate arbitrary pre-GST loss windows and the certificates
		// are re-derivable; persistent backpressure means the peer is
		// effectively crashed.
		p.queueDrops.Add(1)
	}
}

// Broadcast implements network.Endpoint.
func (t *Transport) Broadcast(m msg.Message) {
	for id := range t.peers {
		t.Send(id, m)
	}
	t.Send(t.self, m)
}

// selfLoop is the tracked self-delivery worker: strictly FIFO, one
// delivery at a time under the node lock.
func (t *Transport) selfLoop() {
	defer t.wg.Done()
	t.selfMu.Lock()
	for {
		for t.selfHead >= len(t.selfQ) && !t.closing {
			t.selfWake.Wait()
		}
		if t.closing {
			t.selfMu.Unlock()
			return
		}
		m := t.selfQ[t.selfHead]
		t.selfQ[t.selfHead] = nil
		t.selfHead++
		if t.selfHead == len(t.selfQ) {
			t.selfQ = t.selfQ[:0]
			t.selfHead = 0
		} else if t.selfHead > 256 && t.selfHead*2 >= len(t.selfQ) {
			n := copy(t.selfQ, t.selfQ[t.selfHead:])
			t.selfQ = t.selfQ[:n]
			t.selfHead = 0
		}
		t.selfMu.Unlock()
		if t.deliver(t.self, m) {
			t.selfDelivered.Add(1)
		}
		t.selfMu.Lock()
	}
}

// deliver hands a message to the handler under the node lock, reporting
// whether the handler actually ran (false once the transport is closed
// or, under a conditioner, while the node is down).
func (t *Transport) deliver(from types.NodeID, m msg.Message) bool {
	t.nodeMu.Lock()
	defer t.nodeMu.Unlock()
	select {
	case <-t.closed:
		return false
	default:
	}
	if t.cond != nil && t.cond.isDown() {
		return false
	}
	if t.observer != nil {
		t.observer.OnDeliver(from, t.self, m, t.wallNow())
	}
	t.handler.Deliver(from, m)
	return true
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	go func() {
		<-t.closed
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	for {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				select {
				case <-t.closed:
				default:
					// A corrupt gob stream poisons the decoder: count
					// it and abandon the connection (the peer re-dials)
					// instead of swallowing the error silently.
					t.decodeErrors.Add(1)
				}
			}
			return
		}
		if env.Msg == nil {
			continue
		}
		if t.deliver(env.From, env.Msg) {
			t.delivered.Add(1)
		}
	}
}

// writeLoop owns the outbound connection to one peer. Each envelope gets
// a bounded number of write attempts (dial if needed + encode); on a
// write error the connection is re-dialed and the envelope re-encoded —
// counted as a resend, since the peer may have received the failed
// write's bytes (a possible wire duplicate) — and after writeAttempts
// failures the envelope is dropped and counted, never silently retried
// forever.
func (t *Transport) writeLoop(id types.NodeID, p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	var enc *gob.Encoder
	backoff := 50 * time.Millisecond
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	// sleep waits for the current backoff (or close), growing it toward
	// its cap; a successful dial resets it.
	sleep := func() bool {
		select {
		case <-time.After(backoff):
		case <-t.closed:
			return false
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
		return true
	}
	for {
		select {
		case env := <-p.queue:
			sent := false
			encodeFailed := false
			for attempt := 0; attempt < writeAttempts; attempt++ {
				select {
				case <-t.closed:
					return
				default:
				}
				if conn == nil {
					c, err := net.DialTimeout("tcp", p.addr, time.Second)
					if err != nil {
						p.dialFails.Add(1)
						if !sleep() {
							return
						}
						continue
					}
					conn = c
					enc = gob.NewEncoder(conn)
					backoff = 50 * time.Millisecond
					if attempt > 0 {
						p.redials.Add(1)
					}
				}
				if encodeFailed {
					// Re-encoding after a failed write: the peer may
					// have received the failed attempt's bytes, so this
					// is a possible wire duplicate.
					p.resends.Add(1)
				}
				if err := enc.Encode(&env); err != nil {
					conn.Close()
					conn, enc = nil, nil
					encodeFailed = true
					continue
				}
				sent = true
				p.sent.Add(1)
				break
			}
			if !sent {
				p.writeDrops.Add(1)
			}
		case <-t.closed:
			return
		}
	}
}

var _ network.Endpoint = (*Transport)(nil)
