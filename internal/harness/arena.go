package harness

import (
	"lumiere/internal/crypto"
	"lumiere/internal/metrics"
	"lumiere/internal/network"
	"lumiere/internal/replica"
	"lumiere/internal/sim"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// This file implements the cell-reuse execution arena: a per-worker
// bundle of the long-lived, Reset()-able layers one simulated execution
// needs — scheduler, network, metrics collector, crypto suite and
// replica shells. harness.Run constructs all of them from scratch per
// call; across the thousands of cells of a Table 1 / chaos / attack
// sweep that setup churn dominates allocation traffic. An Arena instead
// pays construction once per worker and rewinds the stack between cells
// (sim.Scheduler.Reset, network.Net.Reset, metrics.Collector.Reset,
// crypto.SimSuite.Reset, replica.Replica.Reset), so an N-cell sweep
// performs O(workers) constructions instead of O(N).
//
// Reuse is invisible in results: each layer's Reset restores the exact
// observable state of a fresh construction (only buffer capacities
// survive), all randomness re-derives from the cell seed, and every
// table is byte-identical with arenas on or off at any worker count
// (see arena_test.go). What a Result keeps — state machines, commit
// logs, the metrics Collector (detached as a Snapshot), tracers and gap
// samples — is built fresh per cell and never recycled: the
// paid-per-cell rebind path for outputs that must outlive the cell.
//
// Between cells an arena holds capacity, not a cell. Before RunIn
// returns, release drops every reference the layers still hold into the
// finished cell — the scheduler's pending events, the network's
// handlers, observers and link policy, the replica shells' pacemakers
// and engines — and a Result reaches no pacemaker, engine or clock, so
// the cell is garbage while its Result is still held, and a sweep
// worker or a benchmark repetition does not carry a dead cell into the
// next one (see retain_test.go).

// Arena owns one long-lived instance of each execution layer for serial
// reuse across scenario runs. The zero Arena is ready to use (layers are
// constructed lazily on first run); an Arena must not be shared between
// goroutines — sweeps thread one per worker.
type Arena struct {
	sched     *sim.Scheduler
	net       *network.Net
	collector *metrics.Collector
	suite     *crypto.SimSuite
	replicas  []*replica.Replica
	wl        *workload.Engine
}

// NewArena creates an empty execution arena. Layers are built on first
// use and recycled by every subsequent RunIn.
func NewArena() *Arena { return &Arena{} }

// RunIn executes a scenario inside the arena, recycling its layers, and
// returns a Result that is independent of the arena: the metrics
// Collector is detached as a snapshot, and the state machines it exposes
// are per-cell constructions, which the arena no longer references once
// RunIn returns. The result is byte-identical to Run(s). A nil arena
// runs the scenario on a fresh one-shot arena, making RunIn(nil, s)
// equivalent to Run(s).
func RunIn(a *Arena, s Scenario) *Result {
	if a == nil {
		return Run(s)
	}
	res := a.run(s)
	a.detach(res)
	return res
}

// scheduler returns the arena's scheduler, reset for seed.
func (a *Arena) scheduler(seed int64) *sim.Scheduler {
	if a.sched == nil {
		a.sched = sim.New(seed)
	} else {
		a.sched.Reset(seed)
	}
	return a.sched
}

// network returns the arena's network, re-armed for the execution.
func (a *Arena) network(cfg types.Config, gst types.Time, link network.LinkPolicy) *network.Net {
	if a.net == nil {
		a.net = network.NewNetLink(a.sched, cfg, gst, link)
	} else {
		a.net.Reset(cfg, gst, link)
	}
	return a.net
}

// metricsCollector returns the arena's collector, reset with the given
// honesty classifier and options.
func (a *Arena) metricsCollector(honest func(types.NodeID) bool, opts ...metrics.Option) *metrics.Collector {
	if a.collector == nil {
		a.collector = metrics.NewCollector(honest, opts...)
	} else {
		a.collector.Reset(honest, opts...)
	}
	return a.collector
}

// simSuite returns the arena's crypto suite, re-keyed for the execution.
func (a *Arena) simSuite(n int, seed int64) *crypto.SimSuite {
	if a.suite == nil {
		a.suite = crypto.NewSimSuite(n, seed)
	} else {
		a.suite.Reset(n, seed)
	}
	return a.suite
}

// workloadEngine returns the arena's workload engine, reset for the
// configuration (record slice and payload storage are recycled).
func (a *Arena) workloadEngine(cfg workload.Config) *workload.Engine {
	if a.wl == nil {
		a.wl = workload.NewEngine(cfg)
	} else {
		a.wl.Reset(cfg)
	}
	return a.wl
}

// release drops the finished cell from the arena's layers (see the file
// comment). It rewinds nothing: the scheduler keeps its clock and
// counters until the next cell's Reset.
func (a *Arena) release() {
	a.sched.Clear()
	a.net.Release()
	for _, r := range a.replicas {
		r.Reset(r.ID)
	}
}

// replicaSlots returns n reset replica shells, reusing prior ones.
func (a *Arena) replicaSlots(n int) []*replica.Replica {
	if cap(a.replicas) < n {
		grown := make([]*replica.Replica, len(a.replicas), n)
		copy(grown, a.replicas)
		a.replicas = grown
	}
	for len(a.replicas) < n {
		a.replicas = append(a.replicas, replica.New(types.NodeID(len(a.replicas)), nil, nil))
	}
	a.replicas = a.replicas[:n]
	for i, r := range a.replicas {
		r.Reset(types.NodeID(i))
	}
	return a.replicas
}
