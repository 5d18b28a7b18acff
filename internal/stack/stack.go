// Package stack builds one replica's protocol stack — a view-
// synchronization pacemaker driving the view core or chained HotStuff —
// for both runtimes: the simulator (internal/harness) and the TCP node
// (internal/nettcp). It owns which protocols exist, each one's Γ and
// accounting epoch length, and the observer that records a decision.
package stack

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/baseline"
	"lumiere/internal/baseline/cogsworth"
	"lumiere/internal/baseline/fever"
	"lumiere/internal/baseline/lp22"
	"lumiere/internal/baseline/nk20"
	"lumiere/internal/baseline/raresync"
	"lumiere/internal/clock"
	"lumiere/internal/core"
	"lumiere/internal/crypto"
	"lumiere/internal/hotstuff"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/replica"
	"lumiere/internal/statemachine"
	"lumiere/internal/trace"
	"lumiere/internal/types"
	"lumiere/internal/viewcore"
)

// Protocol selects the view-synchronization protocol under test.
type Protocol string

// Supported protocols. RareSync is not part of Table 1 but is discussed
// in §6 as the other Dolev-Reischuk-optimal protocol; it is available in
// scenarios and tests but excluded from the Table 1 sweeps.
const (
	Lumiere   Protocol = "lumiere"
	Basic     Protocol = "basic-lumiere"
	LP22      Protocol = "lp22"
	Fever     Protocol = "fever"
	Cogsworth Protocol = "cogsworth"
	NK20      Protocol = "nk20"
	RareSync  Protocol = "raresync"
)

// AllProtocols lists every protocol in Table 1 order plus Basic Lumiere.
var AllProtocols = []Protocol{Cogsworth, NK20, LP22, Fever, Basic, Lumiere}

// lumiere returns the core configuration of p's Lumiere variant; ok is
// false for a baseline.
func (p Protocol) lumiere(base types.Config) (c core.Config, ok bool) {
	c = core.Config{Base: base, Variant: core.VariantFull}
	if p == Basic {
		c.Variant = core.VariantBasic
	}
	return c, p == Lumiere || p == Basic
}

// Gamma returns p's view duration Γ at Δ = delta under the bundled view
// core's x.
func (p Protocol) Gamma(delta time.Duration) time.Duration {
	return p.GammaOf(types.Config{Delta: delta, X: types.DefaultX})
}

// GammaOf returns p's view duration Γ under cfg, from the function p's
// own package paces its pacemaker with; zero for a protocol Build does
// not know.
func (p Protocol) GammaOf(cfg types.Config) time.Duration {
	if c, ok := p.lumiere(cfg); ok {
		return c.Gamma()
	}
	switch p {
	case LP22:
		return lp22.Gamma(cfg)
	case RareSync:
		return raresync.Gamma(cfg)
	case Fever:
		return fever.Gamma(cfg)
	case Cogsworth:
		return cogsworth.Gamma(cfg)
	case NK20:
		return nk20.Gamma(cfg)
	}
	return 0
}

// Validate returns an error naming p when Build does not know it.
func (p Protocol) Validate() error {
	if p.Gamma(time.Second) == 0 {
		return fmt.Errorf("unknown protocol %q", p)
	}
	return nil
}

// EpochLen returns the views-per-epoch grouping of the metrics
// Collector's per-epoch words: Lumiere's own epoch length, else f+1 —
// LP22's and RareSync's epoch, and the nominal grouping of the epoch-less
// protocols.
func (p Protocol) EpochLen(base types.Config) types.View {
	if c, ok := p.lumiere(base); ok {
		return c.EpochLen()
	}
	return baseline.EpochLen(base)
}

// Node is one replica's stack and what Build wires it to. Protocol, SMR,
// SMRBatchSize (0: the default), SMRTwoPhase, CoreDisableDeltaWait and
// CheckInvariants mean what harness.Scenario's fields of those names do;
// Seed derives Lumiere's leader schedule (Seed+7) unless Schedule, one
// instance shared by the execution's nodes, is set. Clock must run on
// Runtime (the simulator, a clock.Drift over it, or a clock.Wall).
// Corruption is the node's static behavior, zero for honest. Observer
// (nil: none) receives the pacemaker's lifecycle notifications; Tracer
// may be nil. Collector records each decision the node makes as a
// leader, and OnDecision (may be nil) hears its view. SM and OnCommit are
// HotStuff's state machine and commit observer (SMR only; OnCommit may be
// nil).
type Node struct {
	Protocol             Protocol
	Seed                 int64
	Schedule             core.Schedule
	SMR                  bool
	SMRBatchSize         int
	SMRTwoPhase          bool
	CoreDisableDeltaWait bool
	CheckInvariants      bool
	Base                 types.Config
	Endpoint             network.Endpoint
	Runtime              clock.Runtime
	Clock                *clock.Clock
	Suite                crypto.Suite
	Corruption           adversary.Corruption
	Observer             pacemaker.Observer
	Tracer               *trace.Tracer
	Collector            *metrics.Collector
	OnDecision           func(types.View)
	SM                   statemachine.StateMachine
	OnCommit             hotstuff.CommitObserver
}

// Build constructs n's pacemaker and consensus engine. It panics on a
// protocol Protocol.Validate rejects.
func Build(n Node) (pacemaker.Pacemaker, replica.Engine) {
	id, ep, rt, suite := n.Endpoint.ID(), n.Endpoint, n.Runtime, n.Suite
	var pm pacemaker.Pacemaker
	leaderFn := func(v types.View) types.NodeID { return pm.Leader(v) }
	onQC := func(qc *msg.QC) { pm.Handle(id, qc) }
	obs := (*decisions)(&n)
	var engine replica.Engine
	if n.SMR {
		hcfg := hotstuff.Config{Base: n.Base, BatchSize: n.SMRBatchSize, TwoPhase: n.SMRTwoPhase}
		hs := hotstuff.New(hcfg, ep, rt, suite, leaderFn, onQC, n.SM, obs, n.OnCommit)
		engine = hs
		if n.Corruption.Behavior == adversary.BehaviorEquivocating {
			engine = adversary.NewEquivocator(hs, ep, n.Base)
		}
	} else {
		engine = viewcore.New(n.Base, ep, rt, suite, leaderFn, onQC, obs)
	}
	driver := adversary.WrapDriver(engine, n.Corruption.Behavior, n.Corruption.Lag, rt)

	if ccfg, ok := n.Protocol.lumiere(n.Base); ok {
		ccfg.DisableDeltaWait, ccfg.CheckInvariants = n.CoreDisableDeltaWait, n.CheckInvariants
		ccfg.ScheduleSeed, ccfg.Schedule = n.Seed+7, n.Schedule
		pm = core.New(ccfg, ep, rt, n.Clock, suite, driver, n.Observer, n.Tracer)
		return pm, engine
	}
	switch n.Protocol {
	case LP22:
		pm = lp22.New(n.Base, ep, rt, n.Clock, suite, driver, n.Observer, n.Tracer)
	case RareSync:
		pm = raresync.New(n.Base, ep, rt, n.Clock, suite, driver, n.Observer, n.Tracer)
	case Fever:
		pm = fever.New(n.Base, ep, rt, n.Clock, suite, driver, n.Observer, n.Tracer)
	case Cogsworth:
		pm = cogsworth.New(n.Base, ep, rt, suite, driver, n.Observer, n.Tracer)
	case NK20:
		pm = nk20.New(n.Base, ep, rt, suite, driver, n.Observer, n.Tracer)
	default:
		panic(fmt.Sprintf("stack: unknown protocol %q", n.Protocol))
	}
	return pm, engine
}

// decisions is a Node seen as every engine's QC observer: the leader
// that produces a QC records the consensus decision (§2), and both QC
// events are traced.
type decisions Node

func (o *decisions) OnQCSeen(qc *msg.QC, at types.Time) {
	o.Tracer.Emit(at, o.Endpoint.ID(), trace.QCSeen, qc.V, "")
}

func (o *decisions) OnQCProduced(qc *msg.QC, at types.Time) {
	o.Tracer.Emit(at, o.Endpoint.ID(), trace.QCProduced, qc.V, "")
	o.Collector.RecordDecision(qc.V, o.Endpoint.ID(), at)
	if o.OnDecision != nil {
		o.OnDecision(qc.V)
	}
}
