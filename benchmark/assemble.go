package main

import (
	"fmt"

	"lumiere/internal/adversary"
	"lumiere/internal/clock"
	"lumiere/internal/core"
	"lumiere/internal/crypto"
	"lumiere/internal/harness"
	"lumiere/internal/hotstuff"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/replica"
	"lumiere/internal/sim"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
	"lumiere/internal/viewcore"
	"lumiere/internal/workload"
)

// assembled is one traced simulated execution: the honest Lumiere stack
// built here from the same public constructors harness.run calls, with a
// timing decorator at every interface (decorate.go).
type assembled struct {
	rec   *recorder
	suite *tracedSuite
	link  *tracedLink

	collector *metrics.Collector
	events    uint64
	scheduled uint64
	maxPend   int
	omitted   int64
	submitted int64
	// blocks and cmds count the commits the first honest replica saw.
	blocks, cmds int64
	finalViews   []types.View
	violations   []string
}

// qcHook is viewcore.QCObserver: the leader that produces a QC records
// the decision, as harness.qcObserver does.
type qcHook struct {
	id        types.NodeID
	collector *metrics.Collector
}

func (qcHook) OnQCSeen(*msg.QC, types.Time) {}

func (o qcHook) OnQCProduced(qc *msg.QC, at types.Time) {
	o.collector.RecordDecision(qc.V, o.id, at)
}

// runAssembled executes s on the assembled stack. It supports what the
// three single-cell workloads use — fixed or policy delays, crashed
// processors, sparse metrics, SMR with a workload engine — and rejects
// anything else, so a scenario it cannot reproduce is an error rather
// than a silently different run.
func runAssembled(s harness.Scenario) (*assembled, error) {
	if s.Protocol != harness.ProtoLumiere || s.Attack.Enabled() || s.Link != nil || s.Topology != nil ||
		s.GST != 0 || s.StartStagger != 0 || s.DriftPPM != nil || s.ProcDelays != nil ||
		(s.SMR && s.Workload == nil) {
		return nil, fmt.Errorf("assemble: scenario %q uses features the traced stack does not build", s.Name)
	}
	cfg := types.Config{N: s.N, F: s.F, Delta: s.Delta, X: types.DefaultX}
	if cfg.N == 0 {
		cfg.N = 3*cfg.F + 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}

	a := &assembled{rec: newRecorder()}
	rec := a.rec
	var running types.NodeID // node whose handler or timer is on the stack

	sched := sim.New(s.Seed)
	delay := s.Delay
	if delay == nil {
		delay = network.Fixed{D: s.DeltaActual}
	}
	a.link = &tracedLink{inner: network.DelayLink{P: delay}, rec: rec}
	net := network.NewNetLink(sched, cfg, 0, a.link)

	crashed := make([]bool, cfg.N)
	for _, c := range s.Corruptions {
		if c.Behavior != adversary.BehaviorCrash {
			return nil, fmt.Errorf("assemble: corruption %v is not a crash", c.Behavior)
		}
		crashed[c.Node] = true
		net.SetByzantine(c.Node)
	}

	ccfg := core.Config{Base: cfg, Variant: core.VariantFull, ScheduleSeed: s.Seed + 7}
	copts := []metrics.Option{metrics.WithEpochWords(ccfg.EpochLen())}
	if s.SparseMetrics > 0 {
		copts = append(copts, metrics.WithSparse(s.SparseMetrics))
	}
	a.collector = metrics.NewCollector(net.Honest, copts...)
	net.Observe(tracedObserver{inner: a.collector, rec: rec})
	a.suite = newTracedSuite(crypto.NewSimSuite(cfg.N, s.Seed+1), rec, &running)

	pms := make([]*core.Pacemaker, cfg.N)
	var mempools []*hotstuff.Core
	var commitHook hotstuff.CommitObserver
	firstHonest := -1
	for i := 0; i < cfg.N; i++ {
		i, id := i, types.NodeID(i)
		r := replica.New(id, nil, nil)
		ep := tracedEndpoint{inner: net.Attach(id, tracedHandler{inner: r, rec: rec, id: id, node: &running}), rec: rec}
		if crashed[i] {
			r.Crashed = true
			continue
		}
		if firstHonest < 0 {
			firstHonest = i
		}
		sched.At(0, func() {
			running = id
			rec.begin(spBoot)
			defer rec.end()
			coreRT := traceRuntime(sched, rec, spCoreTimer, id, &running)
			clk := clock.New(coreRT, 0)

			var pm tracedPacemaker
			leader := func(v types.View) types.NodeID { return pm.Leader(v) }
			onQC := func(qc *msg.QC) { pm.Handle(id, qc) }
			obs := qcHook{id: id, collector: a.collector}
			var engine tracedEngine
			if s.SMR {
				onCommit := commitHook
				if i == firstHonest {
					onCommit = func(b *hotstuff.Block, at types.Time) {
						a.blocks++
						a.cmds += int64(len(b.Cmds))
						commitHook(b, at)
					}
				}
				hcfg := hotstuff.Config{Base: cfg, BatchSize: s.SMRBatchSize, TwoPhase: s.SMRTwoPhase}
				engRT := traceRuntime(sched, rec, spHotstuffTimer, id, &running)
				sm := tracedSM{inner: statemachine.NewKV(), rec: rec}
				hs := hotstuff.New(hcfg, ep, engRT, a.suite, leader, onQC, sm, obs, onCommit)
				mempools = append(mempools, hs)
				engine = tracedEngine{inner: hs, rec: rec, handle: spHotstuffHandle}
			} else {
				engRT := traceRuntime(sched, rec, spViewcoreTimer, id, &running)
				engine = tracedEngine{inner: viewcore.New(cfg, ep, engRT, a.suite, leader, onQC, obs),
					rec: rec, handle: spViewcoreHandle}
			}
			p := core.New(ccfg, ep, coreRT, clk, a.suite, engine, pacemaker.NopObserver{}, nil)
			pms[i] = p
			pm = tracedPacemaker{inner: p, rec: rec}
			r.PM, r.Core = pm, engine
			r.Start()
		})
	}

	var eng *workload.Engine
	if s.SMR {
		eng = workload.NewEngine(*s.Workload)
		if eng.Config().Closed {
			return nil, fmt.Errorf("assemble: closed-loop workloads are not built")
		}
		commitHook = func(b *hotstuff.Block, at types.Time) {
			for i := range b.Cmds {
				c, ok := eng.OnCommit(b.Cmds[i].ID, int64(at))
				if !ok {
					continue
				}
				rec.begin(spRecordCommit)
				a.collector.RecordCommit(at, c.Latency)
				rec.end()
			}
		}
		var pump func()
		pump = func() {
			rec.begin(spSubmit)
			now := int64(sched.Now())
			for eng.NextDueNs() <= now {
				id, pl := eng.SubmitNext(now)
				for _, hs := range mempools {
					hs.EnqueueCommand(id, pl)
				}
			}
			rec.end()
			sched.At(types.Time(eng.NextDueNs()), pump)
		}
		sched.At(types.Time(eng.NextDueNs()), pump)
	}

	// harness.run advances in 100Δ chunks to enforce its event budget;
	// RunUntil is insensitive to the chunking, so finer chunks here give
	// the pending-queue high-water mark without changing the execution.
	end := types.Time(0).Add(s.Duration)
	rec.begin(spRoot)
	for sched.Now() < end {
		sched.RunUntil(types.MinTime(sched.Now().Add(s.Delta), end))
		if p := sched.Pending(); p > a.maxPend {
			a.maxPend = p
		}
	}
	rec.end()
	net.Stop()

	a.events, a.scheduled, a.omitted = sched.Events(), sched.Scheduled(), net.Omitted()
	if eng != nil {
		a.submitted = eng.Submitted()
	}
	a.finalViews = make([]types.View, cfg.N)
	for i, p := range pms {
		a.finalViews[i] = types.NoView
		if p != nil {
			a.finalViews[i] = p.CurrentView()
			a.violations = append(a.violations, p.Violations()...)
		}
	}
	return a, nil
}

// faithful compares the assembled run with harness.Run's result on the
// same scenario: events, decisions, words and commits must agree
// exactly, or the per-layer numbers describe a different execution.
func (a *assembled) faithful(ref *harness.Result) []string {
	var bad []string
	check := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("traced stack diverges from harness.Run: %s %d, want %d", what, got, want))
		}
	}
	check("events", int64(a.events), int64(ref.Events))
	check("decisions", int64(a.collector.DecisionCount()), int64(ref.DecisionCount()))
	check("words", a.collector.WordsTotal(), ref.Collector.WordsTotal())
	check("commits", a.collector.CommitCount(), ref.Collector.CommitCount())
	for i, v := range ref.FinalViews {
		if a.finalViews[i] != v {
			bad = append(bad, fmt.Sprintf("traced stack diverges from harness.Run: node %d final view %v, want %v", i, a.finalViews[i], v))
			break
		}
	}
	return bad
}
