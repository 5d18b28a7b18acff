package main

import (
	"hash/maphash"
	"math/rand"
	"time"

	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/replica"
	"lumiere/internal/sim"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
)

// Timing decorators, one per interface a layer's public constructor
// accepts. Each forwards to the real implementation inside a span, so
// the layers are timed from outside and no file under internal/ changes.

// tracedSuite times crypto.Suite and counts how often each node
// re-verifies the same certificate statement.
type tracedSuite struct {
	inner crypto.Suite
	rec   *recorder
	// node is the node whose handler or timer is running; the handler
	// and runtime decorators set it.
	node *types.NodeID

	seed      maphash.Seed
	certsSeen map[uint64]struct{} // (node, statement) pairs passed to VerifyAggregate
	failed    int64
}

func newTracedSuite(inner crypto.Suite, rec *recorder, node *types.NodeID) *tracedSuite {
	return &tracedSuite{inner: inner, rec: rec, node: node,
		seed: maphash.MakeSeed(), certsSeen: make(map[uint64]struct{})}
}

func (s *tracedSuite) N() int { return s.inner.N() }

func (s *tracedSuite) SignerFor(id types.NodeID) crypto.Signer {
	return tracedSigner{inner: s.inner.SignerFor(id), rec: s.rec}
}

func (s *tracedSuite) Verify(data []byte, sig crypto.Signature) error {
	s.rec.begin(spVerify)
	err := s.inner.Verify(data, sig)
	s.rec.end()
	return err
}

func (s *tracedSuite) Aggregate(data []byte, sigs []crypto.Signature) (crypto.Aggregate, error) {
	s.rec.begin(spAggregate)
	agg, err := s.inner.Aggregate(data, sigs)
	s.rec.end()
	return agg, err
}

func (s *tracedSuite) VerifyAggregate(data []byte, agg crypto.Aggregate, threshold int) error {
	var h maphash.Hash
	h.SetSeed(s.seed)
	h.WriteByte(byte(*s.node))
	h.WriteByte(byte(*s.node >> 8))
	h.Write(data)
	s.certsSeen[h.Sum64()] = struct{}{}

	s.rec.begin(spVerifyAgg)
	err := s.inner.VerifyAggregate(data, agg, threshold)
	s.rec.end()
	if err != nil {
		s.failed++
	}
	return err
}

// perCert is VerifyAggregate calls per distinct (node, statement): 1.0
// means every certificate is checked once per node.
func (s *tracedSuite) perCert() float64 {
	if len(s.certsSeen) == 0 {
		return 0
	}
	return s.rec.calls(spVerifyAgg) / float64(len(s.certsSeen))
}

type tracedSigner struct {
	inner crypto.Signer
	rec   *recorder
}

func (s tracedSigner) ID() types.NodeID { return s.inner.ID() }

func (s tracedSigner) Sign(data []byte) crypto.Signature {
	s.rec.begin(spSign)
	sig := s.inner.Sign(data)
	s.rec.end()
	return sig
}

// tracedEndpoint times network.Endpoint (the simulated Net's endpoint or
// the TCP Transport).
type tracedEndpoint struct {
	inner network.Endpoint
	rec   *recorder
}

func (e tracedEndpoint) ID() types.NodeID { return e.inner.ID() }

func (e tracedEndpoint) Send(to types.NodeID, m msg.Message) {
	e.rec.begin(spSend)
	e.inner.Send(to, m)
	e.rec.end()
}

func (e tracedEndpoint) Broadcast(m msg.Message) {
	e.rec.begin(spBroadcast)
	e.inner.Broadcast(m)
	e.rec.end()
}

// tracedHandler times network.Handler: one span per delivered message,
// the root of everything the delivery causes on a TCP node.
type tracedHandler struct {
	inner network.Handler
	rec   *recorder
	id    types.NodeID
	node  *types.NodeID
}

func (h tracedHandler) Deliver(from types.NodeID, m msg.Message) {
	*h.node = h.id
	h.rec.begin(spDeliver)
	h.inner.Deliver(from, m)
	h.rec.end()
}

// tracedLink times network.LinkPolicy and counts its verdicts.
type tracedLink struct {
	inner               network.LinkPolicy
	rec                 *recorder
	dropped, duplicated int64
}

func (l *tracedLink) Link(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) network.Verdict {
	l.rec.begin(spLink)
	v := l.inner.Link(from, to, m, at, rng)
	l.rec.end()
	if v.Drop {
		l.dropped++
	}
	if v.Dup {
		l.duplicated++
	}
	return v
}

// tracedObserver times network.Observer.OnSend (the metrics Collector's
// per-transmission accounting). OnDeliver is forwarded untimed: the
// Collector's is empty.
type tracedObserver struct {
	inner network.Observer
	rec   *recorder
}

func (o tracedObserver) OnSend(from, to types.NodeID, m msg.Message, at types.Time, honest bool) {
	o.rec.begin(spOnSend)
	o.inner.OnSend(from, to, m, at, honest)
	o.rec.end()
}

func (o tracedObserver) OnDeliver(from, to types.NodeID, m msg.Message, at types.Time) {
	o.inner.OnDeliver(from, to, m, at)
}

// tracedEngine times replica.Engine (viewcore or hotstuff): Handle is
// the layer's entry point for messages, EnterView/LeaderStart for
// pacemaker notifications.
type tracedEngine struct {
	inner  replica.Engine
	rec    *recorder
	handle spanName
}

func (e tracedEngine) Handle(from types.NodeID, m msg.Message) {
	e.rec.begin(e.handle)
	e.inner.Handle(from, m)
	e.rec.end()
}

func (e tracedEngine) EnterView(v types.View) {
	e.rec.begin(spDriver)
	e.inner.EnterView(v)
	e.rec.end()
}

func (e tracedEngine) LeaderStart(v types.View, qcDeadline types.Time) {
	e.rec.begin(spDriver)
	e.inner.LeaderStart(v, qcDeadline)
	e.rec.end()
}

// tracedPacemaker times pacemaker.Pacemaker.Handle (core). The other
// methods are reads and are forwarded untimed.
type tracedPacemaker struct {
	inner pacemaker.Pacemaker
	rec   *recorder
}

func (p tracedPacemaker) Start()                           { p.inner.Start() }
func (p tracedPacemaker) CurrentView() types.View          { return p.inner.CurrentView() }
func (p tracedPacemaker) CurrentEpoch() types.Epoch        { return p.inner.CurrentEpoch() }
func (p tracedPacemaker) Leader(v types.View) types.NodeID { return p.inner.Leader(v) }

func (p tracedPacemaker) Handle(from types.NodeID, m msg.Message) {
	p.rec.begin(spCoreHandle)
	p.inner.Handle(from, m)
	p.rec.end()
}

// tracedSM times statemachine.StateMachine.Apply.
type tracedSM struct {
	inner statemachine.StateMachine
	rec   *recorder
}

func (s tracedSM) Summary() string { return s.inner.Summary() }

func (s tracedSM) Apply(cmd []byte) ([]byte, error) {
	s.rec.begin(spApply)
	out, err := s.inner.Apply(cmd)
	s.rec.end()
	return out, err
}

// tracedRuntime times the callbacks a layer schedules through
// clock.Runtime: each timer callback is a span of the layer that armed
// it. One instance is built per (node, layer).
type tracedRuntime struct {
	inner clock.Runtime
	rec   *recorder
	timer spanName
	id    types.NodeID
	node  *types.NodeID
}

func (r *tracedRuntime) Now() types.Time { return r.inner.Now() }

func (r *tracedRuntime) wrap(fn func()) func() {
	return func() {
		*r.node = r.id
		r.rec.begin(r.timer)
		fn()
		r.rec.end()
	}
}

func (r *tracedRuntime) After(d time.Duration, fn func()) func() {
	return r.inner.After(d, r.wrap(fn))
}

// tracedTimerRuntime keeps clock.Clock on the handle-based alarm path
// the simulator's scheduler offers, so a traced run schedules the same
// events as an untraced one.
type tracedTimerRuntime struct {
	tracedRuntime
	timers clock.TimerRuntime
}

func (r *tracedTimerRuntime) AtTimer(t types.Time, fn func()) sim.Timer {
	return r.timers.AtTimer(t, r.wrap(fn))
}

func (r *tracedTimerRuntime) Cancel(tm sim.Timer) { r.timers.Cancel(tm) }

// traceRuntime decorates rt for one node and layer.
func traceRuntime(rt clock.Runtime, rec *recorder, timer spanName, id types.NodeID, node *types.NodeID) clock.Runtime {
	base := tracedRuntime{inner: rt, rec: rec, timer: timer, id: id, node: node}
	if tr, ok := rt.(clock.TimerRuntime); ok {
		return &tracedTimerRuntime{tracedRuntime: base, timers: tr}
	}
	return &base
}
