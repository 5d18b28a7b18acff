// Package harness builds and runs complete simulated executions: n
// replicas of a chosen view-synchronization protocol over the partial-
// synchrony network, with corruptions, adversarial delay policies,
// staggered joins, metrics, gap tracking and tracing. The experiment
// definitions that regenerate the paper's table and figures live in
// experiments.go.
package harness

import (
	"fmt"
	"time"

	"lumiere/internal/adversary"
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
	"lumiere/internal/workload"
)

// Protocol selects the view-synchronization protocol under test.
type Protocol string

// Supported protocols.
const (
	ProtoLumiere   Protocol = "lumiere"
	ProtoBasic     Protocol = "basic-lumiere"
	ProtoLP22      Protocol = "lp22"
	ProtoFever     Protocol = "fever"
	ProtoCogsworth Protocol = "cogsworth"
	ProtoNK20      Protocol = "nk20"
	// ProtoRareSync is not part of Table 1 but is discussed in §6 as
	// the other Dolev-Reischuk-optimal protocol; it is available in
	// scenarios and tests but excluded from the Table 1 sweeps.
	ProtoRareSync Protocol = "raresync"
)

// AllProtocols lists every protocol in Table 1 order plus Basic Lumiere.
var AllProtocols = []Protocol{ProtoCogsworth, ProtoNK20, ProtoLP22, ProtoFever, ProtoBasic, ProtoLumiere}

// Scenario describes one simulated execution.
type Scenario struct {
	Name     string
	Protocol Protocol

	// F is the fault tolerance (at least 1); N defaults to 3F+1.
	F int
	N int

	// Delta is Δ (default 100ms); DeltaActual is the actual message
	// delay δ used by the default Fixed policy (default Δ/10).
	Delta       time.Duration
	DeltaActual time.Duration
	// Delay overrides the post-GST delay policy.
	Delay network.DelayPolicy
	// PreGSTChaos delays all pre-GST traffic to the model bound GST+Δ.
	PreGSTChaos bool

	// Link overrides the full link-condition policy (delay, drop,
	// duplicate per message), superseding Delay and the declarative
	// chaos fields below. Most scenarios should use those instead:
	// they compose over Delay and stay printable/generatable.
	Link network.LinkPolicy
	// Loss drops each message with this probability. Pre-GST drops are
	// model-faithful "loss" (delivery at GST+Δ); post-GST drops are
	// true omissions only under OmissionBudget, else Δ-late deliveries.
	Loss float64
	// LossUntil limits Loss to messages sent before this instant
	// (zero = the whole run).
	LossUntil time.Duration
	// Duplication delivers one extra copy of each message with this
	// probability, jittered by up to Δ/2.
	Duplication float64
	// ReorderJitter adds an independent uniform extra delay in
	// [0, ReorderJitter] per message, reordering traffic.
	ReorderJitter time.Duration
	// Partitions isolates processor groups from each other until
	// PartitionHeal; processors not listed form one implicit group.
	Partitions [][]types.NodeID
	// PartitionHeal is when Partitions heals (zero = at GST, the
	// model-faithful split-brain).
	PartitionHeal time.Duration
	// OmissionBudget authorizes true post-GST omission. MaxSenders
	// must be ≤ F: post-GST omission is a processor fault.
	OmissionBudget network.OmissionBudget

	// Topology selects a geo-distributed deployment: per-link delays
	// from a regional latency matrix replace the Delay/DeltaActual
	// uniform base (setting both is a scenario error), regional
	// partitions compose with Partitions, and per-region processing
	// delays feed ProcDelays. Validated up front — a latency class the
	// clamp would distort post-GST is rejected, not silently clamped.
	Topology *network.Topology
	// DriftPPM gives node i's clock rate drift in parts per million
	// (+100 = 0.01% fast); DriftSkew its initial clock offset. Shorter
	// slices leave the remaining nodes drift-free; nil means perfectly
	// synchronized hardware clocks. In-model drift keeps a Γ-long local
	// timer within Δ of true (|ppm|·Γ ≤ Δ·10⁶) and |skew| ≤ Δ;
	// Validate rejects more unless UncheckedWAN is set.
	DriftPPM  []int64
	DriftSkew []time.Duration
	// ProcDelays is the straggler model: node i ingests every network
	// message ProcDelays[i] after its clamped delivery time (node
	// slowness, outside the network model). Topology.ProcDelays is the
	// regional way to say the same thing; setting both is a scenario
	// error.
	ProcDelays []time.Duration
	// UncheckedWAN disables Validate's in-model drift and straggler
	// bounds, for deliberate degradation studies (the drift tolerance
	// table).
	// Topology latency classes are always validated against Δ.
	UncheckedWAN bool

	// GST is the global stabilization time (default 0).
	GST time.Duration
	// Duration is the virtual run length (default 60s).
	Duration time.Duration
	// Seed drives all randomness (delays, schedules, keys).
	Seed int64

	// Corruptions marks Byzantine processors and their behaviors.
	Corruptions []adversary.Corruption

	// Attack selects an adaptive attack strategy (adversary.Strategy):
	// the strategy observes protocol traffic through read-only hooks
	// and steers its corrupted processors dynamically. The zero value
	// disables the attack. The strategy's processors (Attack.Nodes,
	// default F) are the highest IDs not otherwise corrupted; together
	// with Corruptions they must not exceed F.
	Attack adversary.AttackSpec

	// InitialOffsets sets each processor's initial local-clock value
	// (Fever's bounded initial skew); nil means all zero.
	InitialOffsets []time.Duration
	// StartStagger delays each processor's join uniformly at random in
	// [0, StartStagger] (processors join with lc = 0 before GST, §2).
	StartStagger time.Duration

	// TraceLimit enables event tracing, keeping at most this many
	// events (0 disables tracing).
	TraceLimit int
	// SparseMetrics caps the metrics Collector's cumulative send series
	// (metrics.WithSparse) for massive-n cells: totals stay exact,
	// time-windowed queries become approximate at the coalesced
	// resolution. Zero leaves the series exact and unbounded.
	SparseMetrics int
	// LegacyBroadcast forces per-recipient broadcast scheduling (one
	// heap event per recipient) instead of the default multicast events.
	// The two paths are byte-identical in outcome; this exists for
	// equivalence testing and as an escape hatch.
	LegacyBroadcast bool
	// CheckInvariants enables Lemma 5.1-5.3 runtime checks (Lumiere).
	CheckInvariants bool
	// SampleGaps enables honest-gap sampling every Δ/2.
	SampleGaps bool

	// CoreDisableDeltaWait is the Lumiere Δ-wait ablation (false = the
	// paper's protocol).
	CoreDisableDeltaWait bool

	// MaxEvents aborts runaway executions (default 200M events).
	MaxEvents uint64

	// SMR runs chained HotStuff instead of the plain view core, each
	// replica executing a state machine built by NewStateMachine
	// (default: the KV store).
	SMR bool
	// NewStateMachine builds each replica's state machine (SMR only).
	NewStateMachine func() statemachine.StateMachine
	// WorkloadRate injects this many client commands per second into
	// every honest replica's mempool (SMR only).
	WorkloadRate int
	// WorkloadCommand builds the i-th command payload (default: KV
	// SETs over a small key space).
	WorkloadCommand func(i int) []byte
	// SMRTwoPhase commits on two-chains (HotStuff-2 style) instead of
	// three-chains.
	SMRTwoPhase bool
	// SMRBatchSize caps commands per proposed block (SMR only; zero =
	// the hotstuff default of 128).
	SMRBatchSize int
	// Workload drives the SMR layer with a simulated client population
	// (internal/workload) instead of the WorkloadRate/WorkloadCommand
	// injector: exact accumulator pacing, per-command commit-latency
	// recording (Collector.CommitLatencyStats) and optional closed-loop
	// clients. SMR only; supersedes WorkloadRate when set.
	Workload *workload.Config
}

// withDefaults fills derived defaults.
func (s Scenario) withDefaults() Scenario {
	if s.Delta <= 0 {
		s.Delta = 100 * time.Millisecond
	}
	if s.DeltaActual <= 0 {
		s.DeltaActual = s.Delta / 10
	}
	if s.N <= 0 {
		s.N = 3*s.F + 1
	}
	if s.Duration <= 0 {
		s.Duration = 60 * time.Second
	}
	if s.MaxEvents == 0 {
		s.MaxEvents = 200_000_000
	}
	if s.Protocol == "" {
		s.Protocol = ProtoLumiere
	}
	return s
}

// Validate checks the scenario's declarative fields for combinations
// that cannot mean what they say — f < 1 or n < 3f+1, a protocol the
// harness does not know, an omission budget charging more than f
// senders, a topology latency class the §2 clamp would silently
// distort, partition groups naming processors the scenario does not
// have, clock drift that puts an honest Γ-long timer more than Δ off
// true, straggler delays past Δ — and returns a descriptive error instead
// of producing a silently-wrong table. The harness runs it on every
// execution (run panics on error, like the config check); UncheckedWAN
// waives only the in-model drift/straggler bounds, for deliberate
// degradation studies.
func (s Scenario) Validate() error {
	return s.withDefaults().validate()
}

// validate implements Validate on a defaults-applied scenario.
func (s Scenario) validate() error {
	if s.F < 1 || s.N < 3*s.F+1 {
		return fmt.Errorf("n=%d, f=%d: need f ≥ 1 and n ≥ 3f+1", s.N, s.F)
	}
	// Γ is zero exactly for a protocol buildProtocol does not know.
	gamma := GammaOf(s.Protocol, s.Delta)
	if gamma == 0 {
		return fmt.Errorf("unknown protocol %q", s.Protocol)
	}
	if err := checkOmissionBudget(s.OmissionBudget, s.F); err != nil {
		return err
	}
	for gi, group := range s.Partitions {
		for _, id := range group {
			if int(id) < 0 || int(id) >= s.N {
				return fmt.Errorf("partition group %d references processor %d; scenario has n=%d", gi, id, s.N)
			}
		}
	}
	if s.Topology != nil {
		if err := s.Topology.Validate(s.N, s.Delta); err != nil {
			return err
		}
		if s.Delay != nil {
			return fmt.Errorf("scenario sets both Topology and Delay; the topology is the delay model")
		}
		if s.ProcDelays != nil && s.Topology.ProcDelays != nil {
			return fmt.Errorf("scenario sets both ProcDelays and Topology.ProcDelays")
		}
	}
	if len(s.ProcDelays) > s.N {
		return fmt.Errorf("%d proc delays for n=%d", len(s.ProcDelays), s.N)
	}
	for i, d := range s.effectiveProcDelays() {
		if d < 0 {
			return fmt.Errorf("negative proc delay %v for processor %d", d, i)
		}
		if !s.UncheckedWAN && d > s.Delta {
			return fmt.Errorf("proc delay %v for processor %d exceeds Δ=%v; set UncheckedWAN for degradation studies", d, i, s.Delta)
		}
	}
	if len(s.DriftPPM) > s.N || len(s.DriftSkew) > s.N {
		return fmt.Errorf("%d drift rates / %d skews for n=%d", len(s.DriftPPM), len(s.DriftSkew), s.N)
	}
	for i, ppm := range s.DriftPPM {
		if ppm < -500_000 || ppm > 500_000 {
			return fmt.Errorf("drift rate %d ppm for processor %d is outside clock.Drift's ±5·10⁵ hard range", ppm, i)
		}
		if s.UncheckedWAN {
			continue
		}
		err := abs64(ppm) * int64(gamma) / 1_000_000
		if time.Duration(err) > s.Delta {
			return fmt.Errorf("drift rate %d ppm drifts a Γ=%v timer %v off true, past Δ=%v; set UncheckedWAN for degradation studies",
				ppm, gamma, time.Duration(err), s.Delta)
		}
	}
	for i, skew := range s.DriftSkew {
		if !s.UncheckedWAN && (skew > s.Delta || skew < -s.Delta) {
			return fmt.Errorf("drift skew %v for processor %d exceeds Δ=%v; set UncheckedWAN for degradation studies", skew, i, s.Delta)
		}
	}
	return nil
}

// checkOmissionBudget enforces that a budget, when set, names 1..f
// senders: post-GST omission is a processor fault and only f processors
// may be faulty. The network treats MaxSenders 0 as "no per-sender cap",
// which would let omissions touch more than f senders, so it is rejected
// along with caps beyond f.
func checkOmissionBudget(b network.OmissionBudget, f int) error {
	if b != (network.OmissionBudget{}) && (b.MaxSenders <= 0 || b.MaxSenders > f) {
		return fmt.Errorf("omission budget must name 1..f=%d senders, got %d", f, b.MaxSenders)
	}
	return nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// effectiveProcDelays resolves the straggler model to one per-node
// slice: the scenario's ProcDelays (padded to n) or the topology's
// regional delays, nil when neither is set.
func (s Scenario) effectiveProcDelays() []time.Duration {
	if s.ProcDelays != nil {
		if len(s.ProcDelays) == s.N {
			return s.ProcDelays
		}
		out := make([]time.Duration, s.N)
		copy(out, s.ProcDelays)
		return out
	}
	if s.Topology != nil {
		return s.Topology.NodeProcDelays()
	}
	return nil
}

// driftOf returns node i's drift parameters.
func (s Scenario) driftOf(i int) (ppm int64, skew time.Duration) {
	if i < len(s.DriftPPM) {
		ppm = s.DriftPPM[i]
	}
	if i < len(s.DriftSkew) {
		skew = s.DriftSkew[i]
	}
	return ppm, skew
}

// linkPolicy composes the declarative chaos fields into the link policy
// the network runs, innermost to outermost: delay base → reorder →
// duplicate → loss → partition → regional isolation (outermost, so
// partitioned traffic is dropped before it can be duplicated). The
// delay base is the uniform Delay policy or, when the scenario has a
// Topology, its compiled regional matrix. Scenario.Link overrides the
// whole chain.
func (s Scenario) linkPolicy(cfg types.Config, gst types.Time, delay network.DelayPolicy) network.LinkPolicy {
	if s.Link != nil {
		return s.Link
	}
	var link network.LinkPolicy = network.DelayLink{P: delay}
	if s.Topology != nil {
		link = s.Topology.Policy()
		if s.PreGSTChaos {
			link = network.PreGSTChaosLink{GST: gst, Base: link}
		}
	}
	if s.ReorderJitter > 0 {
		link = adversary.Reordering{Base: link, Jitter: s.ReorderJitter}
	}
	if s.Duplication > 0 {
		link = adversary.Duplicating{Base: link, P: s.Duplication, Jitter: s.Delta / 2}
	}
	if s.Loss > 0 {
		link = adversary.Lossy{Base: link, P: s.Loss, Until: types.Time(0).Add(s.LossUntil)}
	}
	if len(s.Partitions) > 0 {
		heal := gst
		if s.PartitionHeal > 0 {
			heal = types.Time(0).Add(s.PartitionHeal)
		}
		link = adversary.NewPartition(link, cfg.N, heal, s.Partitions...)
	}
	if s.Topology != nil {
		if groups := s.Topology.IslandGroups(); len(groups) > 0 {
			heal := gst
			if s.Topology.IsolateHeal > 0 {
				heal = types.Time(0).Add(s.Topology.IsolateHeal)
			}
			link = adversary.NewPartition(link, cfg.N, heal, groups...)
		}
	}
	return link
}

// Result carries everything measurable about one execution.
type Result struct {
	Scenario  Scenario
	Cfg       types.Config
	GST       types.Time
	Gamma     time.Duration
	Collector *metrics.Collector
	Tracer    *trace.Tracer
	Gaps      *metrics.GapTracker
	// Violations aggregates invariant violations across replicas.
	Violations []string
	// FinalViews holds each replica's final view (NoView for crashed).
	FinalViews []types.View
	// PMs exposes each replica's pacemaker for inspection (nil for
	// crashed replicas).
	PMs []pacemaker.Pacemaker
	// Engines exposes each replica's consensus engine (SMR: the
	// HotStuff core); nil for crashed replicas.
	Engines []replica.Engine
	// SMs exposes each replica's state machine (SMR only).
	SMs []statemachine.StateMachine
	// Injected is the number of workload commands injected (SMR only).
	Injected int
	// Events is the number of simulator events fired.
	Events uint64
	// Aborted reports whether the MaxEvents budget was exhausted.
	Aborted bool
	// Omitted is the number of true post-GST omissions the network
	// granted against the scenario's OmissionBudget.
	Omitted int64
}

// DecisionCount returns the number of honest-leader decisions.
func (r *Result) DecisionCount() int { return r.Collector.DecisionCount() }

// Run executes a scenario to completion on a fresh one-shot arena. For
// sweeps, thread an Arena through RunIn instead: the result is
// byte-identical and the per-cell setup cost amortizes away.
func Run(s Scenario) *Result {
	return (&Arena{}).run(s, false)
}

// run executes a scenario inside the arena. With detach set the Result
// receives a snapshot of the arena's metrics Collector (so the arena can
// be reused while the Result stays valid); without it the live Collector
// is handed out and the arena is assumed discarded.
func (a *Arena) run(s Scenario, detach bool) *Result {
	s = s.withDefaults()
	cfg := types.Config{N: s.N, F: s.F, Delta: s.Delta, X: types.DefaultX}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	if err := s.validate(); err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	sched := a.scheduler(s.Seed)
	gst := types.Time(0).Add(s.GST)

	policy := s.Delay
	if policy == nil {
		policy = network.Fixed{D: s.DeltaActual}
	}
	if s.PreGSTChaos {
		policy = network.PreGSTChaos{GST: gst, After: policy}
	}

	// Adaptive attack: instantiate the strategy and extend the
	// corruption set with its processors before honesty is classified;
	// the strategy's Link becomes the outermost message schedule, with
	// the scenario's composed policy as its base.
	var strat adversary.Strategy
	baseLink := s.linkPolicy(cfg, gst, policy)
	link := baseLink
	if s.Attack.Enabled() {
		st, err := s.Attack.Strategy()
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		strat = st
		s.Corruptions = withStrategicNodes(s.Corruptions, cfg, s.Attack.Nodes)
		link = network.LinkFunc(strat.Link)
	}
	net := a.network(cfg, gst, link)
	if s.LegacyBroadcast {
		net.SetPerRecipientBroadcast(true)
	}
	if pd := s.effectiveProcDelays(); pd != nil {
		net.SetProcDelays(pd)
	}
	if s.OmissionBudget != (network.OmissionBudget{}) {
		net.SetOmissionBudget(s.OmissionBudget)
	}

	behaviors := make(map[types.NodeID]adversary.Corruption, len(s.Corruptions))
	for _, c := range s.Corruptions {
		behaviors[c.Node] = c
		if c.Behavior != adversary.BehaviorHonest {
			net.SetByzantine(c.Node)
		}
	}
	copts := []metrics.Option{metrics.WithEpochWords(accountingEpochLen(s, cfg))}
	if s.SparseMetrics > 0 {
		copts = append(copts, metrics.WithSparse(s.SparseMetrics))
	}
	collector := a.metricsCollector(net.Honest, copts...)
	net.Observe(collector)

	var tracer *trace.Tracer
	if s.TraceLimit > 0 {
		tracer = trace.New(s.TraceLimit)
	}
	suite := a.simSuite(cfg.N, s.Seed+1)

	// The replica shells are arena slots; everything below that a Result
	// keeps a reference to (clocks via pacemakers, endpoints via the
	// strategy Env, state machines, the honest mask via the gap tracker)
	// is built fresh per cell.
	replicas := a.replicaSlots(cfg.N)
	clocks := make([]*clock.Clock, cfg.N)
	eps := make([]network.Endpoint, cfg.N)
	honest := make([]bool, cfg.N)
	sms := make([]statemachine.StateMachine, cfg.N)
	// commitHook is the workload's per-block commit observer; it is
	// assigned below (after the network and collector exist) and read at
	// replica boot time inside the scheduled start closures.
	var commitHook hotstuff.CommitObserver

	for i := 0; i < cfg.N; i++ {
		id := types.NodeID(i)
		honest[i] = net.Honest(id)
		r := replicas[i]
		ep := net.Attach(id, r)
		eps[i] = ep
		corr := behaviors[id]
		if corr.Behavior == adversary.BehaviorCrash {
			r.Crashed = true
			continue
		}
		if corr.Behavior == adversary.BehaviorCrashAt {
			at := types.Time(0).Add(corr.At)
			sched.At(at, func() { net.Kill(id) })
		}
		if corr.Behavior == adversary.BehaviorChurn {
			for _, d := range corr.Downs {
				d := d
				sched.At(types.Time(0).Add(d.From), func() { net.Kill(id) })
				sched.At(types.Time(0).Add(d.To), func() { net.Revive(id) })
			}
		}
		startAt := types.Time(0)
		if s.StartStagger > 0 {
			startAt = types.Time(sched.Rand().Int63n(int64(s.StartStagger) + 1))
		}
		offset := types.Time(0)
		if i < len(s.InitialOffsets) {
			offset = types.Time(s.InitialOffsets[i])
		}
		if s.SMR {
			if s.NewStateMachine != nil {
				sms[i] = s.NewStateMachine()
			} else {
				sms[i] = statemachine.NewKV()
			}
		}
		// Only honest replicas feed the strategy's pacemaker hooks:
		// the attack frontier tracks honest progress, not the attacker's
		// own (possibly silenced, clock-driven) view entries.
		pobs := pacemaker.Observer(pacemaker.NopObserver{})
		if strat != nil && net.Honest(id) {
			pobs = adversary.PMObserver(strat, id)
		}
		i := i
		sched.At(startAt, func() {
			// A node with clock drift sees the whole runtime — clock
			// reads, alarms, protocol timers — through its drifted local
			// time scale. Drift implements TimerRuntime, so the clock's
			// allocation-free alarm path survives the wrapping.
			var rt clock.Runtime = sched
			if ppm, skew := s.driftOf(i); ppm != 0 || skew != 0 {
				rt = clock.NewDrift(sched, ppm, skew)
			}
			clk := clock.New(rt, offset)
			clocks[i] = clk
			// Commit latency is submit → first commit at any honest
			// replica: only honest replicas report commits.
			var onCommit hotstuff.CommitObserver
			if honest[i] {
				onCommit = commitHook
			}
			pm, engine := buildProtocol(s, cfg, ep, rt, clk, suite, corr, tracer, collector, pobs, sms[i], onCommit)
			r.PM = pm
			r.Core = engine
			r.Start()
		})
	}

	if strat != nil {
		net.Observe(adversary.NetObserver(strat))
		// The leader schedule is shared by all replicas; resolve (and
		// cache) the first booted pacemaker — Leader sits on the
		// strategy Link/Observe hot paths.
		var leaderPM pacemaker.Pacemaker
		strat.Init(&adversary.Env{
			Cfg:       cfg,
			GST:       gst,
			Corrupted: strategicNodes(s.Corruptions),
			Leader: func(v types.View) types.NodeID {
				if leaderPM == nil {
					for _, r := range replicas {
						if r.PM != nil {
							leaderPM = r.PM
							break
						}
					}
					if leaderPM == nil {
						return -1
					}
				}
				return leaderPM.Leader(v)
			},
			Now:       sched.Now,
			At:        func(t types.Time, fn func()) { sched.At(t, fn) },
			After:     func(d time.Duration, fn func()) { sched.After(d, fn) },
			Silence:   net.Kill,
			Unsilence: net.Revive,
			Broadcast: func(from types.NodeID, m msg.Message) { eps[from].Broadcast(m) },
			SyncMsg:   syncSpamBuilder(s, cfg, suite),
			Base:      baseLink,
		})
	}

	injected := 0
	var eng *workload.Engine
	switch {
	case s.SMR && s.Workload != nil:
		// Workload-engine injection: exact accumulator pacing, alloc-free
		// mempool entry (hotstuff.EnqueueCommand), per-command commit
		// latency via commitHook, optional closed-loop resubmission.
		eng = a.workloadEngine(*s.Workload)
		wcfg := eng.Config()
		submitAll := func(id uint64, payload []byte) {
			for _, r := range replicas {
				if r.Crashed || r.Core == nil {
					continue
				}
				if hs, ok := r.Core.(*hotstuff.Core); ok {
					hs.EnqueueCommand(id, payload)
				} else {
					// Wrapped engines (equivocators) take the envelope
					// path; only corrupted replicas pay the allocation.
					r.Core.Handle(r.ID, &msg.Request{ID: id, Payload: payload})
				}
			}
		}
		commitHook = func(b *hotstuff.Block, at types.Time) {
			for i := range b.Cmds {
				c, ok := eng.OnCommit(b.Cmds[i].ID, int64(at))
				if !ok {
					continue // foreign ID or already committed elsewhere
				}
				collector.RecordCommit(at, c.Latency)
				if !wcfg.Closed {
					continue
				}
				client, seq := c.Client, c.Seq+1
				resub := func() {
					id, pl := eng.Resubmit(client, seq, int64(sched.Now()))
					submitAll(id, pl)
				}
				if wcfg.Think > 0 {
					sched.After(wcfg.Think, resub)
				} else {
					resub()
				}
			}
		}
		var pump func()
		pump = func() {
			now := int64(sched.Now())
			for !eng.RampDone() && eng.NextDueNs() <= now {
				id, pl := eng.SubmitNext(now)
				submitAll(id, pl)
			}
			if !eng.RampDone() {
				sched.AtTimer(types.Time(eng.NextDueNs()), pump)
			}
		}
		sched.AtTimer(types.Time(eng.NextDueNs()), pump)
	case s.SMR && s.WorkloadRate > 0:
		// Legacy injector, now on the exact accumulator schedule: command
		// i is due at ⌊(i+1)·10⁹/rate⌋ ns, which reproduces the old
		// interval schedule tick for tick at divisor rates and fixes the
		// truncation drift at every other rate (the old
		// time.Second/rate interval realized e.g. 667111/s for a
		// requested 666667/s, and collapsed to 1µs above 10⁶/s).
		pacer := workload.NewPacer(int64(s.WorkloadRate))
		cmdFor := s.WorkloadCommand
		if cmdFor == nil {
			cmdFor = func(i int) []byte {
				return []byte(fmt.Sprintf("SET key%d value%d", i%64, i))
			}
		}
		var inject func()
		inject = func() {
			now := int64(sched.Now())
			for pacer.NextAtNs() <= now {
				i := pacer.Take()
				req := &msg.Request{ID: workload.IDBase + uint64(i), Payload: cmdFor(int(i))}
				injected++
				for _, r := range replicas {
					if !r.Crashed && r.Core != nil {
						r.Core.Handle(r.ID, req)
					}
				}
			}
			sched.At(types.Time(pacer.NextAtNs()), inject)
		}
		sched.At(types.Time(pacer.NextAtNs()), inject)
	}

	gaps := metrics.NewGapTracker(nil, nil, cfg.F)
	if s.SampleGaps {
		gaps = newLazyGapTracker(clocks, honest, cfg.F)
		var sample func()
		sample = func() {
			gaps.Sample(sched.Now())
			sched.After(s.Delta/2, sample)
		}
		sched.After(s.Delta/2, sample)
	}

	// Run in chunks so the event budget is enforced.
	end := types.Time(0).Add(s.Duration)
	chunk := 100 * s.Delta
	aborted := false
	for sched.Now() < end {
		next := types.MinTime(sched.Now().Add(chunk), end)
		sched.RunUntil(next)
		if sched.Events() > s.MaxEvents {
			aborted = true
			break
		}
	}
	net.Stop()

	if eng != nil {
		injected = int(eng.Submitted())
	}
	resCollector := collector
	if detach {
		// Detach the metrics so the Result stays valid across the
		// arena's next cell: the snapshot is an exactly-sized deep copy
		// answering every query identically to the live Collector.
		resCollector = collector.Snapshot()
	}
	res := &Result{
		Scenario:   s,
		Cfg:        cfg,
		GST:        gst,
		Gamma:      protocolGamma(s.Protocol, cfg),
		Collector:  resCollector,
		Tracer:     tracer,
		Gaps:       gaps,
		FinalViews: make([]types.View, cfg.N),
		PMs:        make([]pacemaker.Pacemaker, cfg.N),
		Engines:    make([]replica.Engine, cfg.N),
		SMs:        sms,
		Injected:   injected,
		Events:     sched.Events(),
		Aborted:    aborted,
		Omitted:    net.Omitted(),
	}
	for i, r := range replicas {
		res.PMs[i] = r.PM
		res.Engines[i] = r.Core
		if r.PM != nil {
			res.FinalViews[i] = r.PM.CurrentView()
			// Lemmas 5.1–5.3 quantify over honest processors only: a
			// corrupted replica (e.g. crash-recovery churn waking up
			// with a stale clock) is outside their guarantees.
			if lum, ok := r.PM.(*core.Pacemaker); ok && honest[i] {
				res.Violations = append(res.Violations, lum.Violations()...)
			}
		} else {
			res.FinalViews[i] = types.NoView
		}
	}
	return res
}

// newLazyGapTracker builds a tracker over a clock slice that is filled in
// as replicas join; nil clocks and Byzantine owners are skipped at sample
// time by filtering here.
func newLazyGapTracker(clocks []*clock.Clock, honest []bool, f int) *metrics.GapTracker {
	return metrics.NewGapTrackerLazy(func() ([]*clock.Clock, []bool) {
		outC := make([]*clock.Clock, 0, len(clocks))
		outH := make([]bool, 0, len(clocks))
		for i, c := range clocks {
			if c != nil {
				outC = append(outC, c)
				outH = append(outH, honest[i])
			}
		}
		return outC, outH
	}, f)
}

// qcObserver wires view-core QC events into metrics and tracing.
type qcObserver struct {
	id        types.NodeID
	collector *metrics.Collector
	tracer    *trace.Tracer
	rtNow     func() types.Time
}

var _ viewcore.QCObserver = (*qcObserver)(nil)

func (o *qcObserver) OnQCSeen(qc *msg.QC, at types.Time) {
	o.tracer.Emit(at, o.id, trace.QCSeen, qc.V, "")
}

func (o *qcObserver) OnQCProduced(qc *msg.QC, at types.Time) {
	o.tracer.Emit(at, o.id, trace.QCProduced, qc.V, "")
	o.collector.RecordDecision(qc.V, o.id, at)
}

// GammaOf returns the view duration Γ of a protocol at the given Δ: the
// unit the experiment drivers (and internal/redteam's scenario builder)
// size their horizons in, and the Γ Scenario.Validate bounds clock drift
// against.
func GammaOf(p Protocol, delta time.Duration) time.Duration { return gammaOf(p, delta) }

// gammaOf is Γ under the harness's model configuration (the bundled view
// core's X), so the value is the one an execution's pacemakers run with
// (TestGammaOfMatchesPacemakers).
func gammaOf(p Protocol, delta time.Duration) time.Duration {
	return protocolGamma(p, types.Config{Delta: delta, X: types.DefaultX})
}

// protocolGamma asks the protocol's own package for its Γ — the function
// its constructor paces the pacemaker with. A protocol buildProtocol does
// not know has no Γ; run rejects it.
func protocolGamma(p Protocol, cfg types.Config) time.Duration {
	switch p {
	case ProtoLumiere:
		return core.Config{Base: cfg, Variant: core.VariantFull}.Gamma()
	case ProtoBasic:
		return core.Config{Base: cfg, Variant: core.VariantBasic}.Gamma()
	case ProtoLP22:
		return lp22.Gamma(cfg)
	case ProtoRareSync:
		return raresync.Gamma(cfg)
	case ProtoFever:
		return fever.Gamma(cfg)
	case ProtoCogsworth:
		return cogsworth.Gamma(cfg)
	case ProtoNK20:
		return nk20.Gamma(cfg)
	default:
		return 0
	}
}

// buildProtocol constructs the pacemaker + consensus engine pair for one
// node. rt is the node's runtime view — the scheduler itself, or a
// clock.Drift wrapper when the node's hardware clock drifts. pobs
// receives the pacemaker's lifecycle notifications (view and epoch
// entries, heavy syncs) — the observation hooks adaptive attack
// strategies read.
func buildProtocol(s Scenario, cfg types.Config, ep network.Endpoint, rt clock.Runtime,
	clk *clock.Clock, suite crypto.Suite, corr adversary.Corruption,
	tracer *trace.Tracer, collector *metrics.Collector, pobs pacemaker.Observer,
	sm statemachine.StateMachine, onCommit hotstuff.CommitObserver) (pacemaker.Pacemaker, replica.Engine) {

	var pm pacemaker.Pacemaker
	leaderFn := func(v types.View) types.NodeID { return pm.Leader(v) }
	obs := &qcObserver{id: ep.ID(), collector: collector, tracer: tracer}
	onQC := func(qc *msg.QC) { pm.Handle(ep.ID(), qc) }
	var engine replica.Engine
	if s.SMR {
		hcfg := hotstuff.Config{Base: cfg, BatchSize: s.SMRBatchSize, TwoPhase: s.SMRTwoPhase}
		hs := hotstuff.New(hcfg, ep, rt, suite, leaderFn, onQC, sm, obs, onCommit)
		engine = hs
		if corr.Behavior == adversary.BehaviorEquivocating {
			engine = adversary.NewEquivocator(hs, ep, cfg)
		}
	} else {
		engine = viewcore.New(cfg, ep, rt, suite, leaderFn, onQC, obs)
	}
	driver := adversary.WrapDriver(engine, corr.Behavior, corr.Lag, rt)

	switch s.Protocol {
	case ProtoLumiere, ProtoBasic:
		ccfg := core.Config{
			Base:             cfg,
			Variant:          core.VariantFull,
			DisableDeltaWait: s.CoreDisableDeltaWait,
			ScheduleSeed:     s.Seed + 7,
			CheckInvariants:  s.CheckInvariants,
		}
		if s.Protocol == ProtoBasic {
			ccfg.Variant = core.VariantBasic
		}
		pm = core.New(ccfg, ep, rt, clk, suite, driver, pobs, tracer)
	case ProtoLP22:
		pm = lp22.New(cfg, ep, rt, clk, suite, driver, pobs, tracer)
	case ProtoRareSync:
		pm = raresync.New(cfg, ep, rt, clk, suite, driver, pobs, tracer)
	case ProtoFever:
		pm = fever.New(cfg, ep, rt, clk, suite, driver, pobs, tracer)
	case ProtoCogsworth:
		pm = cogsworth.New(cfg, ep, rt, suite, driver, pobs, tracer)
	case ProtoNK20:
		pm = nk20.New(cfg, ep, rt, suite, driver, pobs, tracer)
	default:
		panic(fmt.Sprintf("harness: unknown protocol %q", s.Protocol))
	}
	return pm, engine
}
