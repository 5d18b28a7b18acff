// Package redteam is the adversarial search engine: it explores the
// attack/chaos parameter space (adversary.AttackSpec axes crossed with
// the harness's declarative chaos axes and GST placement) for the
// empirical worst case of each protocol under an objective — post-GST
// view-synchronization latency, W_GST honest words, or p99 commit
// latency under an SMR workload. The search is an exhaustive grid
// followed by delta-debugging minimization of the worst candidate to a
// minimal reproducing scenario; a minimizer probe that scores above
// the grid's best becomes the frontier entry.
//
// Everything is deterministic: a candidate's evaluation seed is a pure
// function of (search seed, candidate), candidates run through
// harness.Run on the sweep engine, and neither stage draws
// randomness — so the searched frontier is byte-identical at any
// worker count, like every other sweep in this repository. The
// reference frontier is committed as FRONTIER.json and pinned by
// TestFrontierAtLeastScripted; see
// DESIGN.md §1d and EXPERIMENTS.md ("Searched worst-case frontier").
package redteam

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// Candidate is one point of the search space: an adaptive attack
// (adversary.AttackSpec axes) composed with declarative chaos
// conditions and a GST placement. The zero value is the clean run. All
// axes are explicit — ScriptedCandidates spells out the strategy
// defaults — so shrinking an axis never snaps back to a larger default.
type Candidate struct {
	// Strategy is the adaptive attack (an adversary.AttackNames entry;
	// empty = no attack). Nodes is the number of processors it
	// controls (≥ 1 when Strategy is set; they count against f). K is
	// LeaderTarget's horizon; Period is ViewDesync's silence length and
	// ComplexitySaturate's spam interval. Axes a strategy ignores are
	// zero.
	Strategy string        `json:"strategy,omitempty"`
	Nodes    int           `json:"nodes,omitempty"`
	K        int           `json:"k,omitempty"`
	Period   time.Duration `json:"period,omitempty"`

	// GST places the global stabilization time.
	GST time.Duration `json:"gst,omitempty"`

	// Loss drops each message with this probability until LossUntil
	// (zero = the whole run); Duplication and ReorderJitter are the
	// harness's duplication/reordering axes.
	Loss          float64       `json:"loss,omitempty"`
	LossUntil     time.Duration `json:"loss_until,omitempty"`
	Duplication   float64       `json:"duplication,omitempty"`
	ReorderJitter time.Duration `json:"reorder_jitter,omitempty"`

	// PartitionSize isolates an island of this many processors until
	// PartitionHeal (zero heal = at GST).
	PartitionSize int           `json:"partition_size,omitempty"`
	PartitionHeal time.Duration `json:"partition_heal,omitempty"`

	// ChurnNodes crash-recovery-churns this many processors (they count
	// against f together with Nodes), each down for ChurnDown every
	// ChurnPeriod.
	ChurnNodes  int           `json:"churn_nodes,omitempty"`
	ChurnDown   time.Duration `json:"churn_down,omitempty"`
	ChurnPeriod time.Duration `json:"churn_period,omitempty"`

	// The WAN axes (PR 10). Topology selects a deployment preset
	// (harness.WANPresets; empty = the uniform fast network). DriftPPM
	// gives every processor a drifting hardware clock: ±DriftPPM
	// alternating by processor parity (worst-case pairwise rate spread
	// 2·DriftPPM). Straggler adds a fixed processing delay to one
	// processor — the first ID above the churned and partitioned ranges.
	// Legalize keeps all three in-model (Scenario.Validate holds without
	// UncheckedWAN for every protocol).
	Topology  string        `json:"topology,omitempty"`
	DriftPPM  int64         `json:"drift_ppm,omitempty"`
	Straggler time.Duration `json:"straggler,omitempty"`
}

// Key returns the candidate's canonical identity: an injective encoding
// of every axis. Equal keys mean equal candidates; the evaluation seed
// and the search caches derive from it.
func (c Candidate) Key() string {
	return fmt.Sprintf("s=%s n=%d k=%d per=%d gst=%d loss=%g lu=%d dup=%g rj=%d ps=%d ph=%d cn=%d cd=%d cp=%d topo=%s drift=%d slow=%d",
		c.Strategy, c.Nodes, c.K, int64(c.Period), int64(c.GST),
		c.Loss, int64(c.LossUntil), c.Duplication, int64(c.ReorderJitter),
		c.PartitionSize, int64(c.PartitionHeal),
		c.ChurnNodes, int64(c.ChurnDown), int64(c.ChurnPeriod),
		c.Topology, c.DriftPPM, int64(c.Straggler))
}

// String renders the candidate compactly for tables and logs.
func (c Candidate) String() string {
	var parts []string
	if c.Strategy == "" {
		parts = append(parts, "no-attack")
	} else {
		a := fmt.Sprintf("%s×%d", c.Strategy, c.Nodes)
		if c.K > 0 {
			a += fmt.Sprintf(" k=%d", c.K)
		}
		if c.Period > 0 {
			a += fmt.Sprintf(" per=%s", c.Period)
		}
		parts = append(parts, a)
	}
	parts = append(parts, fmt.Sprintf("gst=%s", c.GST))
	if c.Loss > 0 {
		l := fmt.Sprintf("loss=%.2f", c.Loss)
		if c.LossUntil > 0 {
			l += fmt.Sprintf("<%s", c.LossUntil)
		}
		parts = append(parts, l)
	}
	if c.Duplication > 0 {
		parts = append(parts, fmt.Sprintf("dup=%.2f", c.Duplication))
	}
	if c.ReorderJitter > 0 {
		parts = append(parts, fmt.Sprintf("jit=%s", c.ReorderJitter))
	}
	if c.PartitionSize > 0 {
		p := fmt.Sprintf("part=%d", c.PartitionSize)
		if c.PartitionHeal > 0 {
			p += fmt.Sprintf("@%s", c.PartitionHeal)
		} else {
			p += "@gst"
		}
		parts = append(parts, p)
	}
	if c.ChurnNodes > 0 {
		parts = append(parts, fmt.Sprintf("churn=%d×%s/%s", c.ChurnNodes, c.ChurnDown, c.ChurnPeriod))
	}
	if c.Topology != "" {
		parts = append(parts, "topo="+c.Topology)
	}
	if c.DriftPPM > 0 {
		parts = append(parts, fmt.Sprintf("drift=±%dppm", c.DriftPPM))
	}
	if c.Straggler > 0 {
		parts = append(parts, fmt.Sprintf("slow=%s", c.Straggler))
	}
	return strings.Join(parts, " ")
}

// Legalize clamps the candidate into the model at fault tolerance f:
// the strategy name must be known (else the attack is dropped), the
// strategy and churned processors together stay within f, probabilities
// and durations stay within sane simulation bounds. Legalize is
// idempotent and never grows an axis beyond its input. Search drivers
// and the fuzz harness run every candidate through it, so arbitrary
// in-space points always yield model-legal scenarios.
func (c Candidate) Legalize(f int) Candidate {
	if f < 1 {
		f = 1
	}
	n := 3*f + 1
	known := false
	for _, name := range adversary.AttackNames() {
		if c.Strategy == name {
			known = true
			break
		}
	}
	if !known {
		c.Strategy = ""
	}
	if c.Strategy == "" {
		c.Nodes, c.K, c.Period = 0, 0, 0
	} else {
		c.Nodes = clampInt(c.Nodes, 1, f)
		c.K = clampInt(c.K, 0, n)
		if c.Strategy != adversary.AttackLeaderTarget {
			c.K = 0
		}
		if c.Strategy != adversary.AttackViewDesync && c.Strategy != adversary.AttackSaturate {
			c.Period = 0
		}
		c.Period = clampDur(c.Period, 0, 30*time.Second)
	}
	c.GST = clampDur(c.GST, 0, 10*time.Second)
	c.Loss = clampFloat(c.Loss, 0, 0.9)
	if c.Loss == 0 {
		c.LossUntil = 0
	}
	c.LossUntil = clampDur(c.LossUntil, 0, 60*time.Second)
	c.Duplication = clampFloat(c.Duplication, 0, 0.9)
	c.ReorderJitter = clampDur(c.ReorderJitter, 0, time.Second)
	c.PartitionSize = clampInt(c.PartitionSize, 0, n-1)
	if c.PartitionSize == 0 {
		c.PartitionHeal = 0
	}
	c.PartitionHeal = clampDur(c.PartitionHeal, 0, 60*time.Second)
	c.ChurnNodes = clampInt(c.ChurnNodes, 0, f)
	// Strategic and churned processors both count against f.
	if c.Nodes+c.ChurnNodes > f {
		c.ChurnNodes = f - c.Nodes
	}
	// The island occupies the IDs right above the churned processors;
	// together they must leave at least one processor outside.
	if c.ChurnNodes+c.PartitionSize > n-1 {
		c.PartitionSize = n - 1 - c.ChurnNodes
	}
	if c.PartitionSize == 0 {
		c.PartitionHeal = 0
	}
	if c.ChurnNodes == 0 {
		c.ChurnDown, c.ChurnPeriod = 0, 0
	} else {
		if c.ChurnDown <= 0 {
			c.ChurnDown = 10 * harness.AttackDelta
		}
		if c.ChurnPeriod <= 0 {
			c.ChurnPeriod = 2 * time.Second
		}
		c.ChurnDown = clampDur(c.ChurnDown, time.Millisecond, 10*time.Second)
		c.ChurnPeriod = clampDur(c.ChurnPeriod, time.Millisecond, 30*time.Second)
	}
	// The WAN axes: an unknown preset drops the topology; drift and the
	// straggler clamp to in-model bounds so a legalized candidate always
	// validates without UncheckedWAN. A preset that already carries
	// per-region proc delays absorbs the straggler axis — otherwise two
	// candidates with distinct keys would materialize identically.
	known = false
	for _, name := range harness.WANPresets {
		if c.Topology == name {
			known = true
			break
		}
	}
	if !known {
		c.Topology = ""
	}
	if c.DriftPPM < 0 {
		c.DriftPPM = 0
	}
	if c.DriftPPM > maxDriftPPM {
		c.DriftPPM = maxDriftPPM
	}
	c.Straggler = clampDur(c.Straggler, 0, harness.AttackDelta)
	if c.Topology != "" && len(harness.PresetTopology(c.Topology, n, harness.AttackDelta).ProcDelays) > 0 {
		c.Straggler = 0
	}
	return c
}

// maxDriftPPM bounds the searched drift rate. Validation requires
// |ppm|·Γ ≤ Δ·10⁶; the largest Γ budget here is lumiere's 10Δ, so
// ±20 000 ppm accumulates at most Δ/5 of skew over any protocol's Γ
// and every legalized candidate stays in-model.
const maxDriftPPM = 20_000

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampDur(v, lo, hi time.Duration) time.Duration {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Objective selects what the search maximizes.
type Objective string

// The implemented objectives.
const (
	// ObjSyncLatency is the post-GST view-synchronization latency in Δ
	// units: GST to the first honest-leader decision after it.
	ObjSyncLatency Objective = "sync-latency"
	// ObjWGSTWords is W_GST in words: honest communication from GST to
	// the first honest-leader decision after it.
	ObjWGSTWords Objective = "wgst-words"
	// ObjP99Commit is the p99 submit→commit latency in Δ units under a
	// steady SMR workload (internal/workload), measured after warmup.
	ObjP99Commit Objective = "p99-commit"
)

// Objectives lists the implemented objectives in presentation order.
func Objectives() []Objective {
	return []Objective{ObjSyncLatency, ObjWGSTWords, ObjP99Commit}
}

// Unit names the objective's value unit.
func (o Objective) Unit() string {
	if o == ObjWGSTWords {
		return "w"
	}
	return "Δ"
}

// p99Warmup is the post-GST warmup the p99-commit objective excludes,
// and p99Window the measured steady window after it.
const (
	p99Warmup = 3 * time.Second
	p99Window = 9 * time.Second
	p99Rate   = 300
)

// Scenario materializes the candidate into a runnable scenario for one
// protocol, fault tolerance and objective, with the attack-table cell
// shape (Δ = AttackDelta, δ = Δ/10) and a horizon of 30(f+1) views
// after GST — the p99-commit objective instead runs the SMR stack with
// a steady open-loop workload for p99Warmup+p99Window after GST.
// Churned processors take the lowest IDs and the partition island the
// next ones up, so they never collide with the strategy's processors
// (the highest free IDs).
func (c Candidate) Scenario(p harness.Protocol, f int, obj Objective, seed int64) harness.Scenario {
	delta := harness.AttackDelta
	s := harness.Scenario{
		Name:          fmt.Sprintf("redteam-%s-%s", p, obj),
		Protocol:      p,
		F:             f,
		Delta:         delta,
		DeltaActual:   delta / 10,
		GST:           c.GST,
		Seed:          seed,
		Loss:          c.Loss,
		LossUntil:     c.LossUntil,
		Duplication:   c.Duplication,
		ReorderJitter: c.ReorderJitter,
		PartitionHeal: c.PartitionHeal,
		Duration:      c.GST + 30*time.Duration(f+1)*p.Gamma(delta),
	}
	if c.Strategy != "" {
		s.Attack = adversary.AttackSpec{Name: c.Strategy, Nodes: c.Nodes, K: c.K, Period: c.Period}
	}
	for i := 0; i < c.ChurnNodes; i++ {
		start := time.Duration(i+1) * c.ChurnPeriod / time.Duration(c.ChurnNodes+1)
		cycles := int(s.Duration/c.ChurnPeriod) + 1
		if cycles > 8 {
			cycles = 8
		}
		s.Corruptions = append(s.Corruptions,
			adversary.PeriodicChurn(types.NodeID(i), start, c.ChurnDown, c.ChurnPeriod, cycles))
	}
	if c.PartitionSize > 0 {
		island := make([]types.NodeID, c.PartitionSize)
		for i := range island {
			island[i] = types.NodeID(c.ChurnNodes + i)
		}
		s.Partitions = [][]types.NodeID{island}
	}
	n := 3*f + 1
	if c.Topology != "" {
		// The topology replaces the fast uniform network (DeltaActual is
		// ignored once a topology is set).
		s.Topology = harness.PresetTopology(c.Topology, n, delta)
	}
	if c.DriftPPM > 0 {
		// Worst-case pairwise spread: rates alternate ±ppm by parity.
		s.DriftPPM = make([]int64, n)
		for i := range s.DriftPPM {
			if i%2 == 0 {
				s.DriftPPM[i] = c.DriftPPM
			} else {
				s.DriftPPM[i] = -c.DriftPPM
			}
		}
	}
	if c.Straggler > 0 {
		// The straggler is the first honest ID above the churned and
		// partitioned ranges, clamped to stay a valid processor.
		slow := c.ChurnNodes + c.PartitionSize
		if slow > n-1 {
			slow = n - 1
		}
		s.ProcDelays = make([]time.Duration, slow+1)
		s.ProcDelays[slow] = c.Straggler
	}
	if obj == ObjP99Commit {
		s.Duration = c.GST + p99Warmup + p99Window
		s.SMR = true
		s.SMRBatchSize = 128
		s.NewStateMachine = func() statemachine.StateMachine { return statemachine.NewCounter() }
		s.Workload = &workload.Config{Clients: 10_000, Rate: p99Rate, PayloadPad: 64}
	}
	return s
}

// Measure extracts the objective value from a finished run. The second
// return reports whether the run produced the objective's event (a
// post-GST decision, or any post-warmup commit); a stalled run scores
// the pessimal penalty — the whole post-GST horizon in Δ for the
// latency objectives, the whole post-GST word count for ObjWGSTWords —
// so liveness failures surface as (flagged) frontier maxima instead of
// vanishing.
func Measure(res *harness.Result, obj Objective) (float64, bool) {
	delta := float64(harness.AttackDelta)
	end := types.Time(0).Add(res.Scenario.Duration)
	switch obj {
	case ObjSyncLatency:
		if _, lat, ok := res.Collector.WordsWindowAfter(res.GST); ok {
			return float64(lat) / delta, true
		}
		return float64(end.Sub(res.GST)) / delta, false
	case ObjWGSTWords:
		if w, _, ok := res.Collector.WordsWindowAfter(res.GST); ok {
			return float64(w), true
		}
		return float64(res.Collector.WordsBetween(res.GST, end)), false
	case ObjP99Commit:
		st := res.Collector.CommitLatencyStats(res.GST.Add(p99Warmup))
		if st.Count > 0 {
			return float64(st.P99) / delta, true
		}
		return float64(end.Sub(res.GST)) / delta, false
	default:
		panic(fmt.Sprintf("redteam: unknown objective %q", obj))
	}
}

// CandidateSeed derives a candidate's evaluation seed: the splitmix64
// finalizer over the search seed and the candidate's canonical key. The
// seed depends on (searchSeed, candidate) alone — never on how the
// search reached the candidate — so a frontier or minimized candidate
// re-evaluates byte-identically anywhere (tests, the minimizer, a later
// regeneration).
func CandidateSeed(searchSeed int64, c Candidate) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(c.Key()))
	z := uint64(searchSeed) + h.Sum64() + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// ScriptedCandidates spells out the attack-table cells (every strategy
// at its default parameters, GST = 2s, clean network) as explicit
// candidates. They are members of DefaultSpace and SlimSpace, so every
// grid evaluates them and the searched frontier dominates the scripted
// corpus by construction (TestFrontierAtLeastScripted pins it).
func ScriptedCandidates(f int) []Candidate {
	d := harness.AttackDelta
	gst := 2 * time.Second
	return []Candidate{
		{Strategy: adversary.AttackViewDesync, Nodes: f, Period: 20 * d, GST: gst},
		{Strategy: adversary.AttackLeaderTarget, Nodes: f, K: f, GST: gst},
		{Strategy: adversary.AttackGSTStraddle, Nodes: f, GST: gst},
		{Strategy: adversary.AttackSaturate, Nodes: f, Period: d, GST: gst},
	}
}
