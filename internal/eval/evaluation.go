// Package eval is the paper's evaluation: the registry of every
// section that regenerates a table or figure (Evaluation), the three
// scales that size them, and the drivers that run each section on the
// harness's sweep engine — the paper tables, the SMR tables, the
// sections wrapping harness's chaos, attack and WAN sweeps, and the
// red-team frontier search. TestTablesGolden runs the registry at
// GoldenScale and lumiere-bench runs one suite of it at DefaultScale or
// FullScale; EXPERIMENTS.md records the outputs against the paper.
package eval

import (
	"lumiere/internal/harness"
	"lumiere/internal/redteam"
	"lumiere/internal/viz"
)

// Suite names a group of sections that lumiere-bench runs together.
type Suite string

// The suites, in the order Evaluation lists their sections.
const (
	SuitePaper   Suite = "paper"
	SuiteChaos   Suite = "chaos"
	SuiteAttack  Suite = "attack"
	SuiteSMR     Suite = "smr"
	SuiteWAN     Suite = "wan"
	SuiteLargeN  Suite = "largen"
	SuiteRedTeam Suite = "redteam"
)

// Scale sizes every section of the evaluation.
type Scale struct {
	// Fs is the n-sweep axis (n = 3f+1) of the worst-case, eventual
	// scaling and Figure 1 tables.
	Fs []int
	// EventualF and FAs are Table 1's eventual f_a-sweep: f_a ∈ FAs at
	// n = 3·EventualF+1.
	EventualF int
	FAs       []int
	// F sizes the single-size paper sections: responsiveness, heavy
	// syncs and the three §3.5 results.
	F int
	// ChaosF sizes the chaos table; ChaosCells is the number of
	// generated chaos conformance scenarios.
	ChaosF, ChaosCells int
	// AttackF, SMRF and WANF size the attack, SMR and WAN (topology and
	// drift) sections.
	AttackF, SMRF, WANF int
	// LargeNs is the massive-n table's axis of system sizes.
	LargeNs []int
	// RedTeam is the red-team search: its f and the spaces it searches.
	// The section supplies the seed.
	RedTeam redteam.Config
}

// The three scales. GoldenScale is what testdata/tables.golden pins;
// DefaultScale and FullScale are lumiere-bench without and with -full.
var (
	GoldenScale = Scale{
		Fs: []int{1}, EventualF: 1, FAs: []int{0, 1}, F: 1,
		ChaosF: 1, ChaosCells: 6, AttackF: 1, SMRF: 1, WANF: 1,
		LargeNs: []int{16},
		RedTeam: redteam.Config{F: 1, Space: redteam.SmokeSpace(1), SMRSpace: redteam.SmokeSpace(1)},
	}
	DefaultScale = Scale{
		Fs: []int{1, 3, 5, 10}, EventualF: 5, FAs: []int{0, 1, 2, 3, 5}, F: 3,
		ChaosF: 3, ChaosCells: 24, AttackF: 1, SMRF: 1, WANF: 1,
		LargeNs: []int{128, 256, 1024, 4096},
		RedTeam: redteam.Config{F: 2},
	}
	FullScale = Scale{
		Fs: []int{1, 3, 5, 10, 20}, EventualF: 5, FAs: []int{0, 1, 2, 3, 5}, F: 3,
		ChaosF: 5, ChaosCells: 48, AttackF: 3, SMRF: 3, WANF: 2,
		LargeNs: []int{128, 256, 1024, 4096},
		RedTeam: redteam.Config{F: 2},
	}
)

// Output is one rendered output of a section.
type Output struct {
	// Key is the golden-file section the output renders into; empty
	// means the section's own Key. Outputs sharing a key concatenate.
	Key string
	// Name is the output's file stem: lumiere-bench -csv writes a
	// table to Name.csv.
	Name string
	// Table is the output, or nil for a text figure held in Text.
	Table *viz.Table
	Text  string
}

// Render returns the output as text.
func (o Output) Render() string {
	if o.Table != nil {
		return o.Table.Render()
	}
	return o.Text
}

// Section is one entry of the evaluation.
type Section struct {
	// Key names the section and the golden-file section of its
	// outputs; Also lists the golden keys of further outputs rendered
	// from the same runs.
	Key  string
	Also []string
	// Suite is the lumiere-bench suite that runs the section.
	Suite Suite
	// Claim is the paper claim the section reproduces.
	Claim string
	// Run renders the section at a scale. It returns the outputs and a
	// problem: non-empty when the outputs show a model-legal scenario
	// defeating a protocol.
	Run func(sc Scale, seed int64, opts harness.SweepOptions) ([]Output, string)
}

// one is the output of a section that renders a single table.
func one(name string, t *viz.Table) []Output { return []Output{{Name: name, Table: t}} }

// Evaluation is the paper's evaluation, every section once, suite by
// suite.
var Evaluation = []Section{
	{Key: "Table1WorstCase", Suite: SuitePaper, Run: table1WorstCase,
		Claim: "Table 1, worst-case rows: Cogsworth O(n³) messages / O(n²Δ), the others O(n²) / O(nΔ)"},
	{Key: "Table1Eventual", Also: []string{"EventualWordsTable"}, Suite: SuitePaper, Run: table1Eventual,
		Claim: "Table 1, eventual rows: Lumiere and Fever O(n·f_a+n) messages and words / O(f_aΔ+δ), growing with actual faults"},
	{Key: "EventualScalingTable", Also: []string{"EventualScalingPlot", "WordScalingTable"}, Suite: SuitePaper, Run: eventualScaling,
		Claim: "eventual communication is O(n) per decision for Lumiere and Fever, Θ(n²) for LP22 and NK20"},
	{Key: "Figure1Table", Suite: SuitePaper, Run: figure1Table,
		Claim: "Figure 1: one faulty leader stalls LP22 for almost (f+1)Γ, Lumiere for O(Γ)"},
	{Key: "ResponsivenessTable", Suite: SuitePaper, Run: responsivenessTable,
		Claim: "Theorem 1.1(3): smooth optimistic responsiveness, decisions every O(δ) while f_a = 0"},
	{Key: "HeavySyncTable", Suite: SuitePaper, Run: heavySyncTable,
		Claim: "Theorem 1.1(4): Lumiere stops heavy synchronizations; LP22 and Basic Lumiere pay one per epoch"},
	{Key: "GapShrinkage", Suite: SuitePaper, Run: gapShrinkageTable,
		Claim: "§3.5 and Lemma 5.9: hg_{f+1} never exceeds Γ and returns below it after GST"},
	{Key: "AdversarialSuccess", Suite: SuitePaper, Run: adversarialSuccessTable,
		Claim: "§3.5: Lumiere keeps deciding while late-proposing Byzantine leaders keep the success criterion alive"},
	{Key: "DeltaWaitAblation", Suite: SuitePaper, Run: deltaWaitTable,
		Claim: "§3.5: the Δ-wait before epoch-view messages keeps in-flight deciding QCs from forcing heavy syncs"},
	{Key: "ChaosTable", Suite: SuiteChaos, Run: chaosTable,
		Claim: "§2's model beyond delay: every protocol resynchronizes after partitions, loss, duplication and churn heal at GST"},
	{Key: "ChaosConformance", Suite: SuiteChaos, Run: chaosConformanceTable,
		Claim: "§2's obligations hold on every generated chaos scenario"},
	{Key: "AttackTable", Suite: SuiteAttack, Run: attackTable,
		Claim: "every protocol resynchronizes after GST under every model-legal adaptive attack"},
	{Key: "ThroughputTable", Suite: SuiteSMR, Run: throughputTable,
		Claim: "chained HotStuff over each pacemaker: committed commands/s and commit latency by load and batch"},
	{Key: "ThroughputUnderAttackTable", Suite: SuiteSMR, Run: throughputUnderAttackTable,
		Claim: "commit latency clean versus under the view-desync attack"},
	{Key: "TopologyTable", Suite: SuiteWAN, Run: topologyTable,
		Claim: "graceful degradation: no in-model WAN topology stalls view synchronization or SMR"},
	{Key: "DriftToleranceTable", Suite: SuiteWAN, Run: driftToleranceTable,
		Claim: "Lemmas 5.1–5.3 hold under every in-model clock drift"},
	{Key: "LargeNWordsTable", Suite: SuiteLargeN, Run: largeNWordsTable,
		Claim: "at four-digit n Lumiere's worst window stays O(n) words, LP22's is Θ(n²)"},
	{Key: "RedTeamFrontier", Also: []string{"RedTeamFrontierJSON"}, Suite: SuiteRedTeam, Run: redTeamFrontier,
		Claim: "§2's model against a searched adversary: no model-legal attack × chaos × WAN scenario stalls a protocol, and the worst found dominates the scripted attacks"},
}
