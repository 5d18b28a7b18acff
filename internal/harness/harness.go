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
	"lumiere/internal/clock"
	"lumiere/internal/core"
	"lumiere/internal/crypto"
	"lumiere/internal/hotstuff"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/replica"
	"lumiere/internal/sim"
	"lumiere/internal/stack"
	"lumiere/internal/statemachine"
	"lumiere/internal/trace"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// Protocol selects the view-synchronization protocol under test: one of
// internal/stack's, which builds every node of both runtimes.
type Protocol = stack.Protocol

// Supported protocols (stack's; RareSync is outside the Table 1 sweeps).
const (
	ProtoLumiere   = stack.Lumiere
	ProtoBasic     = stack.Basic
	ProtoLP22      = stack.LP22
	ProtoFever     = stack.Fever
	ProtoCogsworth = stack.Cogsworth
	ProtoNK20      = stack.NK20
	ProtoRareSync  = stack.RareSync
)

// AllProtocols lists every protocol in Table 1 order plus Basic Lumiere.
var AllProtocols = stack.AllProtocols

// Scenario describes one execution: simulated by Run, or over loopback
// sockets by RunCluster, which realizes a subset of the fields
// (clusterFields) and rejects the rest by name.
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
	// SparseMetrics is ignored: every collector is exact.
	//
	// Deprecated: leave it zero. It remains because the repository
	// benchmark (benchmark/) reads it.
	SparseMetrics int
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
	// SMRTwoPhase commits on two-chains (HotStuff-2 style) instead of
	// three-chains.
	SMRTwoPhase bool
	// SMRBatchSize caps commands per proposed block (SMR only; zero =
	// the hotstuff default of 128).
	SMRBatchSize int
	// Workload drives the SMR layer with a simulated client population
	// (internal/workload), the only source of simulated client commands:
	// open-loop clients at an exact accumulator-paced rate, per-command
	// commit-latency recording (Collector.CommitLatencyStats) and custom
	// payloads (Config.Command). SMR only; nil runs SMR with no client
	// load.
	Workload *workload.Config
}

// withDefaults fills derived defaults.
func (s Scenario) withDefaults() Scenario {
	if s.Delta == 0 {
		s.Delta = 100 * time.Millisecond
	}
	if s.DeltaActual == 0 {
		s.DeltaActual = s.Delta / 10
	}
	if s.N <= 0 {
		s.N = 3*s.F + 1
	}
	if s.Duration == 0 {
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
// that cannot mean what they say — f < 1 or n < 3f+1, a negative
// duration or a probability outside [0, 1], a protocol or attack the
// harness does not know, a corrupted processor the scenario does not
// have, more than f faulty processors (corruptions plus the attack's),
// an omission budget charging more than f senders, a client workload
// the engine would run as something else, a
// topology latency class the §2 clamp would silently distort, partition
// groups naming processors the scenario does not have, clock drift that
// puts an honest Γ-long timer more than Δ off true, straggler delays
// past Δ — and returns a descriptive error instead of producing a
// silently-wrong table. The harness runs it on every
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
	for _, d := range []struct {
		name string
		d    time.Duration
	}{
		{"Delta", s.Delta}, {"DeltaActual", s.DeltaActual}, {"GST", s.GST}, {"Duration", s.Duration},
		{"StartStagger", s.StartStagger}, {"LossUntil", s.LossUntil}, {"PartitionHeal", s.PartitionHeal},
		{"ReorderJitter", s.ReorderJitter},
	} {
		if d.d < 0 {
			return fmt.Errorf("%s = %v: need ≥ 0 (0 = default)", d.name, d.d)
		}
	}
	if !(s.Loss >= 0 && s.Loss <= 1) || !(s.Duplication >= 0 && s.Duplication <= 1) {
		return fmt.Errorf("Loss = %v, Duplication = %v: need probabilities in [0, 1]", s.Loss, s.Duplication)
	}
	if err := s.Protocol.Validate(); err != nil {
		return err
	}
	if err := s.checkFaults(); err != nil {
		return err
	}
	gamma := s.Protocol.Gamma(s.Delta)
	if err := checkOmissionBudget(s.OmissionBudget, s.F); err != nil {
		return err
	}
	if err := checkWorkload(s.Workload, s.SMR); err != nil {
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

// checkFaults rejects a corruption naming a processor outside [0, n), an
// unknown attack, and more faulty processors than f: the distinct
// processors with a non-honest corruption plus the attack's (Attack.Nodes,
// 0 = f).
func (s Scenario) checkFaults() error {
	faulty := make(map[types.NodeID]bool, len(s.Corruptions))
	for _, c := range s.Corruptions {
		if int(c.Node) < 0 || int(c.Node) >= s.N {
			return fmt.Errorf("corruption names processor %d; scenario has n=%d", c.Node, s.N)
		}
		if c.Behavior != adversary.BehaviorHonest {
			faulty[c.Node] = true
		}
	}
	k := len(faulty)
	if s.Attack.Enabled() {
		if _, err := s.Attack.Strategy(); err != nil {
			return err
		}
		nodes := s.Attack.Nodes
		if nodes <= 0 {
			nodes = s.F
		}
		k += nodes
	}
	if k > s.F {
		return fmt.Errorf("%d faulty processors (corruptions plus attack) exceed f=%d", k, s.F)
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

// checkWorkload rejects a client population the engine would run as
// something else (the pacer clamps a rate below 1/s to 1).
func checkWorkload(w *workload.Config, smr bool) error {
	switch {
	case w == nil:
		return nil
	case !smr:
		return fmt.Errorf("Workload is set but SMR is not: clients need the SMR layer")
	case w.Rate < 1:
		return fmt.Errorf("Workload.Rate = %d: need ≥ 1 command per second", w.Rate)
	case w.Clients < 0:
		return fmt.Errorf("Workload.Clients = %d: need ≥ 0 (0 = one client)", w.Clients)
	case w.Closed:
		return fmt.Errorf("Workload.Closed is set: only open-loop clients are simulated")
	case w.PayloadPad < 0:
		return fmt.Errorf("Workload.PayloadPad = %d: need ≥ 0", w.PayloadPad)
	case w.Command != nil && w.PayloadPad != 0:
		return fmt.Errorf("Workload.Command builds every payload: Workload.PayloadPad would be ignored")
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
// the network runs, innermost to outermost: delay base → pre-GST chaos
// → reorder → duplicate → loss → partition → regional isolation
// (outermost, so partitioned traffic is dropped before it can be
// duplicated). The delay base is the uniform Delay policy or, when the
// scenario has a Topology, its compiled regional matrix. Scenario.Link
// overrides the whole chain.
func (s Scenario) linkPolicy(cfg types.Config, gst types.Time, delay network.DelayPolicy) network.LinkPolicy {
	if s.Link != nil {
		return s.Link
	}
	var link network.LinkPolicy = network.DelayLink{P: delay}
	if s.Topology != nil {
		link = s.Topology.Policy()
	}
	if s.PreGSTChaos {
		link = network.PreGSTChaosLink{GST: gst, Base: link}
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

// Result carries everything measurable about one execution. It holds
// outputs only — nothing in it reaches a pacemaker, an engine or a
// clock — so a finished cell's protocol state is garbage with the run.
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
	// Committed holds each replica's commit log, block hashes in commit
	// order: nil where the replica ran no HotStuff engine (no SMR, a
	// crashed replica, an equivocator's wrapped engine), empty where its
	// engine committed nothing.
	Committed [][]hotstuff.Hash
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

// Run executes a scenario to completion. Every layer of the cell —
// scheduler, network, metrics collector, crypto suite, workload engine,
// replica shells — is built for this call alone and dropped with it:
// the Result holds outputs only, so the cell is garbage once Run
// returns.
func Run(s Scenario) *Result {
	res, _ := run(s)
	return res
}

// Arena holds nothing: RunIn ignores it.
//
// Deprecated: call Run. Arena, NewArena and RunIn remain because the
// repository benchmark (benchmark/) calls them.
type Arena struct{}

// NewArena returns an Arena.
//
// Deprecated: call Run.
func NewArena() *Arena { return &Arena{} }

// RunIn is Run(s); the arena is ignored.
//
// Deprecated: call Run.
func RunIn(_ *Arena, s Scenario) *Result { return Run(s) }

// run executes a scenario and also returns the replica shells, one slab
// of n: each still holds its replica's pacemaker and engine, for
// in-package inspection after the run.
func run(s Scenario) (*Result, []replica.Replica) {
	s = s.withDefaults()
	cfg := types.Config{N: s.N, F: s.F, Delta: s.Delta, X: types.DefaultX}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	if err := s.validate(); err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	sched := sim.New(s.Seed)
	gst := types.Time(0).Add(s.GST)

	delay := s.Delay
	if delay == nil {
		delay = network.Fixed{D: s.DeltaActual}
	}

	// Adaptive attack: instantiate the strategy and extend the
	// corruption set with its processors before honesty is classified;
	// the strategy's Link becomes the outermost message schedule, with
	// the scenario's composed policy as its base.
	var strat adversary.Strategy
	baseLink := s.linkPolicy(cfg, gst, delay)
	link := baseLink
	if s.Attack.Enabled() {
		strat, _ = s.Attack.Strategy() // validate has checked the name
		s.Corruptions = withStrategicNodes(s.Corruptions, cfg, s.Attack.Nodes)
		link = network.LinkFunc(strat.Link)
	}
	net := network.NewNetLink(sched, cfg, gst, link)
	if pd := s.effectiveProcDelays(); pd != nil {
		net.SetProcDelays(pd)
	}
	if s.OmissionBudget != (network.OmissionBudget{}) {
		net.SetOmissionBudget(s.OmissionBudget)
	}

	// The honest mask is the cell's own: the collector classifies
	// decision leaders through it, so a Result reaches no network.
	behaviors := make(map[types.NodeID]adversary.Corruption, len(s.Corruptions))
	honest := make([]bool, cfg.N)
	for i := range honest {
		honest[i] = true
	}
	for _, c := range s.Corruptions {
		behaviors[c.Node] = c
		if c.Behavior != adversary.BehaviorHonest {
			net.SetByzantine(c.Node)
			honest[c.Node] = false
		}
	}
	collector := metrics.NewCollector(func(id types.NodeID) bool { return honest[id] })
	net.Observe(collector)

	var tracer *trace.Tracer
	if s.TraceLimit > 0 {
		tracer = trace.New(s.TraceLimit)
	}
	suite := crypto.NewSimSuite(cfg.N, s.Seed+1)

	shells := make([]replica.Replica, cfg.N)
	clocks := make([]*clock.Clock, cfg.N)
	eps := make([]network.Endpoint, cfg.N)
	sms := make([]statemachine.StateMachine, cfg.N)
	// commitHook is the workload's per-block commit observer; it is
	// assigned below (after the network and collector exist) and read at
	// replica boot time inside the scheduled start closures.
	var commitHook hotstuff.CommitObserver
	// Every replica runs the same stack. The §4 schedule is common
	// knowledge: one instance, generated lazily in block order, serves
	// every replica of the cell.
	stk := stack.Node{Protocol: s.Protocol, Seed: s.Seed, SMR: s.SMR, SMRBatchSize: s.SMRBatchSize,
		SMRTwoPhase: s.SMRTwoPhase, CoreDisableDeltaWait: s.CoreDisableDeltaWait, CheckInvariants: s.CheckInvariants,
		Base: cfg, Suite: suite, Tracer: tracer, Collector: collector}
	if s.Protocol == ProtoLumiere {
		stk.Schedule = core.NewPermSchedule(cfg.N, s.Seed+7)
	}

	for i := 0; i < cfg.N; i++ {
		id := types.NodeID(i)
		r := &shells[i]
		r.ID = id
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
		if strat != nil && honest[i] {
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
			n := stk
			n.Endpoint, n.Runtime, n.Clock, n.Corruption, n.Observer = ep, rt, clk, corr, pobs
			n.SM, n.OnCommit = sms[i], onCommit
			r.PM, r.Core = stack.Build(n)
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
					for i := range shells {
						if pm := shells[i].PM; pm != nil {
							leaderPM = pm
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

	var eng *workload.Engine
	// submitAll hands a command to every running replica's mempool:
	// allocation-free through hotstuff.EnqueueCommand, and through the
	// msg.Request envelope only for wrapped engines (equivocators), so
	// only corrupted replicas pay the allocation.
	submitAll := func(id uint64, payload []byte) {
		for i := range shells {
			r := &shells[i]
			if r.Crashed || r.Core == nil {
				continue
			}
			if hs, ok := r.Core.(*hotstuff.Core); ok {
				hs.EnqueueCommand(id, payload)
			} else {
				r.Core.Handle(r.ID, &msg.Request{ID: id, Payload: payload})
			}
		}
	}
	if s.Workload != nil { // validate requires SMR
		// Workload-engine injection: exact accumulator pacing and
		// per-command commit latency via commitHook.
		eng = workload.NewEngine(*s.Workload)
		commitHook = func(b *hotstuff.Block, at types.Time) {
			for i := range b.Cmds {
				if c, ok := eng.OnCommit(b.Cmds[i].ID, int64(at)); ok { // not foreign, first commit
					collector.RecordCommit(at, c.Latency)
				}
			}
		}
		var pump func()
		pump = func() {
			now := int64(sched.Now())
			for eng.NextDueNs() <= now {
				id, pl := eng.SubmitNext(now)
				submitAll(id, pl)
			}
			sched.AtTimer(types.Time(eng.NextDueNs()), pump)
		}
		sched.AtTimer(types.Time(eng.NextDueNs()), pump)
	}

	gaps := metrics.NewGapTracker(clocks, honest, cfg.F)
	if s.SampleGaps {
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
	gaps.Stop()

	injected := 0
	if eng != nil {
		injected = int(eng.Submitted())
	}
	res := &Result{
		Scenario:   s,
		Cfg:        cfg,
		GST:        gst,
		Gamma:      s.Protocol.GammaOf(cfg),
		Collector:  collector,
		Tracer:     tracer,
		Gaps:       gaps,
		FinalViews: make([]types.View, cfg.N),
		Committed:  make([][]hotstuff.Hash, cfg.N),
		SMs:        sms,
		Injected:   injected,
		Events:     sched.Events(),
		Aborted:    aborted,
		Omitted:    net.Omitted(),
	}
	for i := range shells {
		r := &shells[i]
		if hs, ok := r.Core.(*hotstuff.Core); ok {
			if res.Committed[i] = hs.CommittedHashes(); res.Committed[i] == nil {
				res.Committed[i] = []hotstuff.Hash{}
			}
		}
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
	return res, shells
}
