package lumiere

import (
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/nettcp"
	"lumiere/internal/network"
	"lumiere/internal/redteam"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// Re-exported core vocabulary.
type (
	// Scenario describes one simulated execution; zero values get
	// sensible defaults (see the field docs).
	Scenario = harness.Scenario
	// Result carries everything measurable about one execution.
	Result = harness.Result
	// Protocol selects the view synchronization protocol under test.
	Protocol = harness.Protocol
	// Corruption assigns a Byzantine behavior to one processor.
	Corruption = adversary.Corruption
	// Behavior is a Byzantine strategy.
	Behavior = adversary.Behavior
	// NodeID identifies a processor.
	NodeID = types.NodeID
	// View is a view number.
	View = types.View
	// Epoch groups views.
	Epoch = types.Epoch
	// Table is a rendered experiment result.
	Table = harness.Table
	// ClusterNode is a live TCP replica.
	ClusterNode = nettcp.Node
	// ClusterConfig configures one TCP replica.
	ClusterConfig = nettcp.NodeConfig
	// ClusterExperiment configures one loopback wall-clock cluster run
	// over real sockets (see RunCluster).
	ClusterExperiment = harness.ClusterExperiment
	// ClusterResult aggregates a wall-clock cluster run's measures.
	ClusterResult = harness.ClusterResult
	// ClusterStats snapshots one TCP node's transport counters.
	ClusterStats = nettcp.Stats
	// ClusterPeerStats counts one outbound TCP peer link's traffic.
	ClusterPeerStats = nettcp.PeerStats
	// LinkConditioner realizes link chaos at the socket layer of a TCP
	// node (ClusterConfig.Link), honoring the §2 clamp.
	LinkConditioner = nettcp.Conditioner
	// SweepOptions configures a parallel scenario sweep.
	SweepOptions = harness.SweepOptions
	// SweepCell is one completed cell of a sweep.
	SweepCell = harness.SweepCell
	// SweepResult aggregates a sweep in matrix order.
	SweepResult = harness.SweepResult
	// LinkPolicy is the adversary's full per-message control: delay,
	// drop, duplicate — clamped to the §2 model by the network.
	LinkPolicy = network.LinkPolicy
	// Topology is a regional WAN link matrix (Scenario.Topology): nodes
	// grouped into regions, one latency class per region pair, optional
	// per-region processing delays. Compiles to a zero-allocation
	// LinkPolicy under the §2 clamp.
	Topology = network.Topology
	// WANCell is one protocol × WAN-preset cell of a WAN degradation
	// sweep.
	WANCell = harness.WANCell
	// WANReport aggregates a WAN degradation sweep.
	WANReport = harness.WANReport
	// DriftCell is one protocol × drift-magnitude cell of a clock-drift
	// tolerance sweep.
	DriftCell = harness.DriftCell
	// DriftReport aggregates a clock-drift tolerance sweep.
	DriftReport = harness.DriftReport
	// OmissionBudget authorizes true post-GST message omission
	// (Scenario.OmissionBudget); MaxSenders must be ≤ f.
	OmissionBudget = network.OmissionBudget
	// Downtime is one crash interval of a crash-recovery (churn)
	// corruption.
	Downtime = adversary.Downtime
	// ChaosCell is one checked cell of a chaos conformance sweep.
	ChaosCell = harness.ChaosCell
	// ChaosReport aggregates a chaos conformance sweep.
	ChaosReport = harness.ChaosReport
	// AttackSpec selects an adaptive attack strategy for a scenario
	// (Scenario.Attack): a named Strategy observing protocol traffic
	// through read-only hooks and steering the corrupted processors
	// dynamically.
	AttackSpec = adversary.AttackSpec
	// AttackCell is one protocol × strategy cell of an attack sweep.
	AttackCell = harness.AttackCell
	// AttackReport aggregates an attack sweep.
	AttackReport = harness.AttackReport
	// Arena is a reusable per-worker execution stack: one long-lived
	// scheduler/network/crypto/metrics/replica bundle recycled across
	// scenario runs via RunIn. Sweeps thread one per worker
	// automatically; reuse is byte-identical to fresh construction.
	Arena = harness.Arena
	// RedTeamCandidate is one point of the adversarial search space: an
	// adaptive attack composed with chaos conditions and a GST
	// placement.
	RedTeamCandidate = redteam.Candidate
	// RedTeamSpace is a finite adversarial search space: a choice list
	// per candidate axis.
	RedTeamSpace = redteam.Space
	// RedTeamObjective selects what the adversarial search maximizes
	// (sync latency, W_GST words, or p99 commit latency).
	RedTeamObjective = redteam.Objective
	// RedTeamConfig parameterizes the RedTeam search.
	RedTeamConfig = redteam.Config
	// Frontier is the searched worst-case frontier artifact (one entry
	// per protocol × objective), committed as FRONTIER.json.
	Frontier = redteam.Frontier
	// FrontierEntry is one protocol × objective row of a Frontier.
	FrontierEntry = redteam.Entry
)

// Protocols.
const (
	ProtoLumiere   = harness.ProtoLumiere
	ProtoBasic     = harness.ProtoBasic
	ProtoLP22      = harness.ProtoLP22
	ProtoFever     = harness.ProtoFever
	ProtoCogsworth = harness.ProtoCogsworth
	ProtoNK20      = harness.ProtoNK20
	ProtoRareSync  = harness.ProtoRareSync
)

// Byzantine behaviors.
const (
	BehaviorHonest        = adversary.BehaviorHonest
	BehaviorCrash         = adversary.BehaviorCrash
	BehaviorNonProposing  = adversary.BehaviorNonProposing
	BehaviorLateProposing = adversary.BehaviorLateProposing
	BehaviorCrashAt       = adversary.BehaviorCrashAt
	BehaviorChurn         = adversary.BehaviorChurn
	BehaviorStrategic     = adversary.BehaviorStrategic
)

// Adaptive attack strategies (Scenario.Attack / RunAttackSweep).
const (
	// AttackViewDesync is the vote-then-silence desynchronizer.
	AttackViewDesync = adversary.AttackViewDesync
	// AttackLeaderTarget omits traffic to/from the next k leaders.
	AttackLeaderTarget = adversary.AttackLeaderTarget
	// AttackGSTStraddle is honest until GST, worst-case after.
	AttackGSTStraddle = adversary.AttackGSTStraddle
	// AttackSaturate spams protocol-legal sync traffic toward O(n²).
	AttackSaturate = adversary.AttackSaturate
)

// AttackNames lists the implemented attack strategies.
func AttackNames() []string { return adversary.AttackNames() }

// AllProtocols lists every implemented protocol in Table 1 order.
var AllProtocols = harness.AllProtocols

// Run executes a simulated scenario to completion.
func Run(s Scenario) *Result { return harness.Run(s) }

// NewArena creates an empty execution arena for serial scenario reuse:
// RunIn recycles its scheduler, network, crypto suite, metrics buffers
// and replica shells across runs, eliminating per-run setup cost. An
// arena must not be shared between goroutines.
func NewArena() *Arena { return harness.NewArena() }

// RunIn executes a scenario inside an arena, recycling its layers. The
// Result is independent of the arena and byte-identical to Run(s); a nil
// arena is equivalent to Run(s). Use one arena per goroutine when
// running many scenarios back to back (RunSweep does this per worker
// automatically).
func RunIn(a *Arena, s Scenario) *Result { return harness.RunIn(a, s) }

// RunSweep executes a scenario matrix on a worker pool and returns the
// results in matrix order. Cell seeds are derived from (opts.BaseSeed,
// cell index), so the aggregated results are byte-identical at every
// worker count.
func RunSweep(scenarios []Scenario, opts SweepOptions) *SweepResult {
	return harness.Sweep(scenarios, opts)
}

// DeriveSeed derives the deterministic seed of sweep cell index from a
// base seed.
func DeriveSeed(base int64, index int) int64 { return harness.DeriveSeed(base, index) }

// GenScenario derives a random but fully reproducible scenario from seed
// (random corruptions, delay policy, GST, stagger, SMR on/off); the
// Protocol field is left for the caller. See the conformance suite.
func GenScenario(seed int64) Scenario { return harness.GenScenario(seed) }

// ConformanceReport checks a finished run against the protocol-
// independent safety and liveness obligations of §2, returning one
// message per violation.
func ConformanceReport(res *Result) []string { return harness.ConformanceReport(res) }

// StartClusterNode boots a real TCP replica (see cmd/lumiere-cluster).
func StartClusterNode(cfg ClusterConfig) (*ClusterNode, error) { return nettcp.StartNode(cfg) }

// StartCluster boots the experiment's loopback cluster — n real TCP
// replicas on reserved 127.0.0.1 ports, one shared wall-clock origin, the
// chaos axes applied at each node's socket layer — and returns the
// running nodes with the function that closes them all. RunCluster and
// `lumiere-cluster -local` both boot through it.
func StartCluster(e ClusterExperiment) (nodes []*ClusterNode, closeAll func(), err error) {
	return harness.StartCluster(e)
}

// InjectCommands offers rate client commands per second to SMR nodes,
// round-robin, for d of wall clock (d ≤ 0: until the process exits) and
// returns how many were accepted: the open-loop injector, paced on
// absolute due times, behind RunCluster and `lumiere-cluster -rate`.
func InjectCommands(nodes []*ClusterNode, rate int, d time.Duration) (accepted int) {
	return harness.InjectCommands(nodes, rate, d)
}

// RunCluster boots a loopback cluster of real TCP replicas (one shared
// wall-clock origin), runs it for the experiment's duration, and
// aggregates per-node metrics — words in the simulator's per-kind model,
// merged decision stream, transport counters — into one result. The
// wall-clock counterpart of Run.
func RunCluster(e ClusterExperiment) (*ClusterResult, error) { return harness.RunCluster(e) }

// ClusterTable runs one loopback TCP cluster per f in fs (n = 3f+1) for
// perRun of wall clock each and renders sync-latency and words columns
// in a fixed schema — the real-I/O table printed by
// `lumiere-cluster -local -table` and recorded in EXPERIMENTS.md.
func ClusterTable(fs []int, delta, perRun time.Duration, seed int64) (*Table, error) {
	return harness.ClusterTable(fs, delta, perRun, seed)
}

// CrashFirst returns crash corruptions for processors 0..k-1.
func CrashFirst(k int) []Corruption { return adversary.CrashFirst(k) }

// NonProposingSet returns non-proposing corruptions for the given nodes.
func NonProposingSet(nodes ...NodeID) []Corruption { return adversary.NonProposingSet(nodes...) }

// Churn returns a crash-recovery corruption: the node is silent and
// deaf during each Downtime and resumes with intact state after.
func Churn(node NodeID, downs ...Downtime) Corruption { return adversary.Churn(node, downs...) }

// PeriodicChurn returns a churn corruption with cycles downtimes of
// length downFor, the first starting at start, spaced period apart.
func PeriodicChurn(node NodeID, start, downFor, period time.Duration, cycles int) Corruption {
	return adversary.PeriodicChurn(node, start, downFor, period, cycles)
}

// RunChaosSweep runs the chaos conformance sweep: count generated
// scenarios with guaranteed link conditions (partitions, loss,
// duplication, reorder jitter, churn, omission budgets), cycled across
// AllProtocols and conformance-checked. The report depends only on
// (count, seed), never on the worker count.
func RunChaosSweep(count int, seed int64, opts SweepOptions) *ChaosReport {
	return harness.ChaosSweep(count, seed, opts)
}

// GenChaosScenario derives a reproducible scenario with at least one
// chaos axis always on; see GenScenario.
func GenChaosScenario(seed int64) Scenario { return harness.GenChaosScenario(seed) }

// RunAttackSweep runs every protocol under every adaptive attack
// strategy (AllProtocols × AttackNames) and reports each cell's
// post-GST view-synchronization latency and honest communication in
// words. The report depends only on (f, seed), never on the worker
// count.
func RunAttackSweep(f int, seed int64, opts SweepOptions) *AttackReport {
	return harness.AttackSweep(f, seed, opts)
}

// AttackSpecs lists the attack table's strategies (default parameters)
// in column order.
func AttackSpecs() []AttackSpec { return harness.AttackSpecs() }

// AttackDelta is the Δ every attack, red-team and WAN table runs
// under (50ms): large enough that sub-Δ timing structure is visible,
// small enough that long adversarial horizons stay cheap to simulate.
const AttackDelta = harness.AttackDelta

// WANPresets lists the named WAN deployment topologies in table order
// (see PresetTopology).
var WANPresets = harness.WANPresets

// PresetTopology builds a named WAN deployment topology for n nodes
// under Δ = delta: "single" (one region), "wan3" (three regions),
// "hub" (hub region + satellites), "degraded" (wan3 plus a slow last
// region). Panics on an unknown name; WANPresets lists the valid ones.
func PresetTopology(name string, n int, delta time.Duration) *Topology {
	return harness.PresetTopology(name, n, delta)
}

// RunWANSweep runs every WAN protocol over the deployment presets —
// sync latency and honest words per cell, plus a p99 commit column
// from an SMR run — and returns the raw cells. The report depends only
// on (f, seed), never on the worker count.
func RunWANSweep(f int, seed int64, opts SweepOptions) *WANReport {
	return harness.WANSweep(f, seed, opts)
}

// TopologyTable renders the WAN graceful-degradation table: one row
// per deployment preset (single region → degraded WAN), columns per
// protocol with post-GST sync latency, honest words, and p99 commit
// latency. Byte-identical at every worker count.
func TopologyTable(f int, seed int64, opts SweepOptions) *Table {
	return harness.TopologyTable(f, seed, opts)
}

// DriftPPMAxis is the default drift-magnitude axis of the tolerance
// table, from perfect clocks to 50% rate error.
var DriftPPMAxis = harness.DriftPPMAxis

// RunDriftSweep sweeps per-node clock-drift magnitudes (±ppm,
// alternating sign by node parity — the worst pairwise spread) and
// checks each cell against the paper's Lemma 5.1–5.3 obligations,
// marking whether the magnitude is within the model's timing budget.
func RunDriftSweep(f int, ppms []int64, seed int64, opts SweepOptions) *DriftReport {
	return harness.DriftSweep(f, ppms, seed, opts)
}

// DriftToleranceTable renders the clock-drift tolerance table: one row
// per drift magnitude, in-model cells asserted violation-free and
// beyond-tolerance cells reported as a degradation regression table.
// Byte-identical at every worker count.
func DriftToleranceTable(f int, seed int64, opts SweepOptions) *Table {
	return harness.DriftToleranceTable(f, seed, opts)
}

// RedTeam runs the adversarial search: for every protocol × objective,
// a grid sweep over the attack × chaos space, evolutionary refinement
// seeded with the scripted attacks, and delta-debugging minimization of
// the worst candidate found. The frontier — including every minimized
// candidate — depends only on (Config.Seed, Config.F, spaces), never on
// the worker count. The reference run is committed as FRONTIER.json;
// see DESIGN.md §1d.
func RedTeam(cfg RedTeamConfig) *Frontier { return redteam.SearchFrontier(cfg) }

// RedTeamTable runs the adversarial search at fault tolerance f and
// renders the frontier table (one row per protocol × objective: worst
// candidate, objective value, minimized reproducer).
func RedTeamTable(f int, seed int64, opts SweepOptions) *Table {
	return redteam.SearchFrontier(redteam.Config{F: f, Seed: seed, Workers: opts.Workers}).Table()
}

// RedTeamObjectives lists the adversarial search objectives in
// presentation order.
func RedTeamObjectives() []RedTeamObjective { return redteam.Objectives() }

// ReadFrontier loads a committed frontier artifact (FRONTIER.json).
func ReadFrontier(path string) (*Frontier, error) { return redteam.ReadFrontier(path) }

// ---------------------------------------------------------------------------
// Experiment drivers (the paper's table and figures; see EXPERIMENTS.md)
// ---------------------------------------------------------------------------

// Table1WorstCase regenerates Table 1's worst-case communication and
// latency rows as empirical n-sweeps. Like every table driver it takes
// the sweep options (worker count, progress callback) last; the zero
// value runs on all CPUs.
func Table1WorstCase(fs []int, seed int64, opts SweepOptions) (comm, latency *Table) {
	return harness.Table1WorstCase(fs, seed, opts)
}

// Table1Eventual regenerates Table 1's eventual worst-case rows as
// f_a-sweeps at n = 3f+1.
func Table1Eventual(f int, fas []int, seed int64, opts SweepOptions) (comm, latency *Table) {
	return harness.Table1Eventual(f, fas, seed, opts)
}

// Figure1Table regenerates Figure 1: the stall a single Byzantine leader
// causes after a burst of fast QCs, per protocol and size.
func Figure1Table(fs []int, seed int64, opts SweepOptions) *Table {
	return harness.Figure1Table(fs, seed, opts)
}

// ResponsivenessTable sweeps the actual network delay δ at f_a = 0.
func ResponsivenessTable(f int, seed int64, opts SweepOptions) *Table {
	return harness.ResponsivenessTable(f, seed, opts)
}

// HeavySyncTable counts Θ(n²) epoch synchronizations after warmup.
func HeavySyncTable(f int, seed int64, opts SweepOptions) *Table {
	return harness.HeavySyncTable(f, seed, opts)
}

// ChaosTable compares every protocol's view-synchronization latency
// after GST under partitions healing at GST, pre-GST loss, duplication
// with reordering, and crash-recovery churn.
func ChaosTable(f int, seed int64, opts SweepOptions) *Table {
	return harness.ChaosTable(f, seed, opts)
}

// AttackTable compares every protocol under the four adaptive attack
// strategies: post-GST view-synchronization latency (in Δ) and W_GST in
// words per cell.
func AttackTable(f int, seed int64, opts SweepOptions) *Table {
	return harness.AttackTable(f, seed, opts)
}

// EventualWordsTable reports the maximum honest words between
// consecutive decisions as f_a grows at fixed n = 3f+1: Lumiere/Fever
// grow linearly with the actual faults, LP22/NK20 pay Θ(n²) regardless.
func EventualWordsTable(f int, fas []int, seed int64, opts SweepOptions) *Table {
	return harness.EventualWordsTable(f, fas, seed, opts)
}

// WordScalingTable sweeps n at fixed f_a and reports the maximum words
// per decision window: Lumiere's words grow ~linearly in n (driven by
// actual faults), LP22's and NK20's quadratically.
func WordScalingTable(fs []int, fa int, seed int64, opts SweepOptions) *Table {
	return harness.WordScalingTable(fs, fa, seed, opts)
}

// LargeNSizes is the default system-size axis of the massive-n scaling
// table: {128, 256, 1024, 4096}.
var LargeNSizes = harness.LargeNSizes

// LargeNWordsTable sweeps LP22 and Lumiere over massive system sizes
// (multicast broadcast events + bitset quorum tracking make n=4096
// cells feasible) and reports total honest words / n over a 60s run:
// near-flat for Lumiere (words linear in n), ~linear for LP22 (words
// quadratic, from its Θ(n²) epoch synchronization).
func LargeNWordsTable(ns []int, seed int64, opts SweepOptions) *Table {
	return harness.LargeNWordsTable(ns, seed, opts)
}

// GapShrinkage measures §3.5's honest-gap convergence.
func GapShrinkage(f int, seed int64) harness.GapShrinkageResult {
	return harness.GapShrinkage(f, seed)
}

// DeltaWaitAblation compares heavy-sync counts with and without the
// Δ-wait of §3.5.
func DeltaWaitAblation(f int, seed int64) (withWait, withoutWait int) {
	return harness.DeltaWaitAblation(f, seed)
}

// AdversarialSuccess runs §3.5's adversarial-success-criterion scenario.
func AdversarialSuccess(f int, seed int64) harness.EventualResult {
	return harness.AdversarialSuccess(f, seed)
}

// DefaultDelta is the Δ used by examples.
const DefaultDelta = 100 * time.Millisecond

// EventualScalingData runs the n-sweep at fixed f_a for every protocol
// (raw data for EventualScalingTableF, EventualScalingPlot or custom
// rendering).
func EventualScalingData(fs []int, fa int, seed int64, opts SweepOptions) map[Protocol][]harness.EventualResult {
	return harness.EventualScalingData(fs, fa, seed, opts)
}

// EventualScalingTableF formats pre-computed scaling data.
func EventualScalingTableF(data map[Protocol][]harness.EventualResult, fs []int, fa int) *Table {
	return harness.EventualScalingTable(data, fs, fa)
}

// EventualScalingPlot renders the scaling sweep as an ASCII chart.
func EventualScalingPlot(data map[Protocol][]harness.EventualResult) string {
	return harness.EventualScalingPlot(data)
}

// WorkloadConfig describes a logical client population for SMR runs
// (Scenario.Workload): open or closed loop, exact offered load via the
// accumulator pacer, optional payload padding and read mix. Command
// generation is allocation-free on the warm path at any population size.
type WorkloadConfig = workload.Config

// ThroughputCell is one protocol × offered-load × batch-size cell of a
// throughput sweep: committed commands/sec plus submit→commit latency
// percentiles.
type ThroughputCell = harness.ThroughputCell

// ThroughputReport aggregates a throughput sweep.
type ThroughputReport = harness.ThroughputReport

// ThroughputAttackCell compares one protocol's commit latency clean
// versus under attack at the same offered load.
type ThroughputAttackCell = harness.ThroughputAttackCell

// ThroughputUnderAttackReport aggregates an under-attack throughput
// sweep.
type ThroughputUnderAttackReport = harness.ThroughputUnderAttackReport

// RunThroughputSweep runs every protocol over the offered-load × batch
// matrix in SMR mode and measures committed-command throughput and
// commit latency (raw cells for custom rendering).
func RunThroughputSweep(f int, seed int64, opts SweepOptions) *ThroughputReport {
	return harness.ThroughputSweep(f, seed, opts)
}

// RunThroughputUnderAttackSweep runs every protocol clean and under the
// named attack strategy (default view-desync) at a fixed offered load.
func RunThroughputUnderAttackSweep(f int, attack string, seed int64, opts SweepOptions) *ThroughputUnderAttackReport {
	return harness.ThroughputUnderAttackSweep(f, attack, seed, opts)
}

// ThroughputTable compares every protocol's committed commands/sec and
// commit latency (p50/p99) across offered loads and batch sizes, open
// loop at 10⁶ logical clients. Byte-identical at every worker count.
func ThroughputTable(f int, seed int64, opts SweepOptions) *Table {
	return harness.ThroughputTable(f, seed, opts)
}

// ThroughputUnderAttackTable reports what the view-desync attack does to
// each protocol's commit latency at a fixed offered load: clean vs
// attacked throughput, p99, and the p99 blowup factor.
func ThroughputUnderAttackTable(f int, seed int64, opts SweepOptions) *Table {
	return harness.ThroughputUnderAttackTable(f, seed, opts)
}
