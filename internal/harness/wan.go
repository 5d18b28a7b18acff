package harness

import (
	"fmt"
	"time"

	"lumiere/internal/network"
	"lumiere/internal/statemachine"
	"lumiere/internal/viz"
	"lumiere/internal/workload"
)

// This file implements the WAN deployment experiment: geo-distributed
// topology presets (regional latency matrices with jitter, straggler
// regions, hub-and-spoke shapes) realized through network.Topology, and
// WANSweep with the table that reports it (view-sync latency, W_GST
// words and p99 SMR commit latency per preset, Lumiere vs LP22). The
// clock-drift tolerance table lives in internal/eval. See DESIGN.md §1e
// for the deployment model and EXPERIMENTS.md ("WAN degradation") for
// the reference tables.

// WANPresets lists the topology presets of the WAN tables, in row
// order. Each is a deployment shape PresetTopology materializes for any
// n and Δ:
//
//   - single: one region, LAN-class latencies — the control row.
//   - wan3: three regions of near-equal size, fast intra-region links,
//     Δ-scale inter-region links with jitter — the classic
//     three-datacenter deployment.
//   - hub: a hub region plus two spokes; spoke↔spoke traffic pays
//     nearly the whole Δ — the shape that stresses leaders placed in a
//     spoke.
//   - degraded: wan3 with the last region a straggler — every message
//     into it is ingested 0.8Δ late (node slowness, not network delay)
//     — the graceful-degradation row.
var WANPresets = []string{"single", "wan3", "hub", "degraded"}

// WANProtocols are the protocols compared in the WAN tables: the
// paper's Θ(n²)-synchronization baseline against Lumiere.
var WANProtocols = []Protocol{ProtoLumiere, ProtoLP22}

// splitRegions divides n processors over r regions as evenly as
// possible (earlier regions take the remainder).
func splitRegions(n, r int) []int {
	if r > n {
		r = n
	}
	out := make([]int, r)
	base, rem := n/r, n%r
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// PresetTopology materializes one of WANPresets for n processors under
// partial-synchrony bound delta. Every preset validates against delta
// by construction: latency class + jitter stays ≤ Δ, and the degraded
// preset's straggler delay stays ≤ Δ (in-model, no UncheckedWAN
// needed). Unknown names panic.
func PresetTopology(name string, n int, delta time.Duration) *network.Topology {
	intra := delta / 25
	switch name {
	case "single":
		return &network.Topology{
			Regions: []int{n},
			Intra:   intra,
			Jitter:  delta / 50,
		}
	case "wan3":
		return &network.Topology{
			Regions: splitRegions(n, 3),
			Intra:   intra,
			Inter:   delta * 3 / 5,
			Jitter:  delta / 10,
		}
	case "hub":
		h, s := intra, delta*2/5
		return &network.Topology{
			Regions: splitRegions(n, 3),
			Matrix: [][]time.Duration{
				{h, s, s},
				{s, h, delta * 4 / 5},
				{s, delta * 4 / 5, h},
			},
			Jitter: delta / 10,
		}
	case "degraded":
		t := PresetTopology("wan3", n, delta)
		t.ProcDelays = make([]time.Duration, t.R())
		t.ProcDelays[t.R()-1] = delta * 4 / 5
		return t
	default:
		panic(fmt.Sprintf("harness: unknown WAN preset %q", name))
	}
}

// wanSyncScenario builds the view-synchronization half of one WAN cell:
// the attack table's shape (GST = 2s, Δ = AttackDelta, a post-GST
// window long enough for per-decision statistics) with the preset
// topology as the delay model and pre-GST chaos riding on it.
func wanSyncScenario(preset string, p Protocol, f int, seed int64) Scenario {
	delta := AttackDelta
	gst := 2 * time.Second
	gamma := p.Gamma(delta)
	return Scenario{
		Name:        fmt.Sprintf("wan-%s-%s-f%d", preset, p, f),
		Protocol:    p,
		F:           f,
		Delta:       delta,
		Topology:    PresetTopology(preset, 3*f+1, delta),
		PreGSTChaos: true,
		GST:         gst,
		Duration:    gst + 30*time.Duration(f+1)*gamma,
		Seed:        seed,
	}
}

// ThroughputPayloadPad is the filler bytes per command of every SMR
// table's workload; proposals are charged ⌈payload/32⌉ words for it
// (msg.PayloadWords), so words/cmd reflects data-plane traffic too.
const ThroughputPayloadPad = 64

// wanSMRWarmup, wanSMRLoad, wanSMRBatch and wanSMRClients fix the SMR
// half of each WAN cell: a modest open-loop load whose p99 commit
// latency isolates the topology's effect rather than queueing.
const (
	wanSMRWarmup        = 3 * time.Second
	wanSMRLoad    int64 = 300
	wanSMRBatch         = 128
	wanSMRClients       = 10_000
)

// wanSMRScenario builds the SMR half of one WAN cell: chained HotStuff
// over the protocol's pacemaker on the preset topology, measured in
// submit→commit latency after warmup.
func wanSMRScenario(preset string, p Protocol, f int, seed int64) Scenario {
	delta := AttackDelta
	gst := 2 * time.Second
	return Scenario{
		Name:            fmt.Sprintf("wan-smr-%s-%s-f%d", preset, p, f),
		Protocol:        p,
		F:               f,
		Delta:           delta,
		Topology:        PresetTopology(preset, 3*f+1, delta),
		GST:             gst,
		Duration:        gst + 15*time.Second,
		Seed:            seed,
		SMR:             true,
		SMRBatchSize:    wanSMRBatch,
		NewStateMachine: func() statemachine.StateMachine { return statemachine.NewCounter() },
		Workload: &workload.Config{
			Clients:    wanSMRClients,
			Rate:       wanSMRLoad,
			PayloadPad: ThroughputPayloadPad,
		},
	}
}

// WANCell is one topology preset × protocol cell: the
// view-synchronization measurements from the sync run and the commit
// percentiles from the SMR run.
type WANCell struct {
	// Preset and Protocol identify the cell.
	Preset   string
	Protocol Protocol
	// Seed is the sync run's derived seed (the SMR run's is Seed+1 in
	// sweep order).
	Seed int64
	// Decided reports whether an honest-leader decision landed after
	// GST; SyncLatency is its distance from GST; WindowWords is W_GST in
	// words.
	Decided     bool
	SyncLatency time.Duration
	WindowWords int64
	// Committed, PerSec and P99 come from the SMR run: committed
	// commands, post-warmup throughput and p99 submit→commit latency.
	Committed int64
	PerSec    float64
	P99       time.Duration
}

// measureWANSync extracts the view-synchronization half of a WAN cell
// from a finished sync run.
func measureWANSync(preset string, res *Result) WANCell {
	cell := WANCell{Preset: preset, Protocol: res.Scenario.Protocol, Seed: res.Scenario.Seed}
	if w, lat, ok := res.Collector.WordsWindowAfter(res.GST); ok {
		cell.Decided = true
		cell.SyncLatency = lat
		cell.WindowWords = w
	}
	return cell
}

// WANReport aggregates a WAN sweep.
type WANReport struct {
	// Cells holds presets outer (WANPresets order), protocols inner
	// (WANProtocols order).
	Cells   []WANCell
	Workers int
	Elapsed time.Duration
}

// WANSweep runs the WANPresets × WANProtocols matrix — two runs per
// cell (view-sync shape and SMR shape) — on the sweep engine. Cell
// seeds derive from (seed, cell index), so the report is byte-identical
// at every worker count.
func WANSweep(f int, seed int64, opts SweepOptions) *WANReport {
	g := SweepGrid(GridShape{Rows: len(WANPresets), Cols: len(WANProtocols), Runs: 2}, seed, opts,
		func(row, col, run int) Scenario {
			if run == 0 {
				return wanSyncScenario(WANPresets[row], WANProtocols[col], f, 0)
			}
			return wanSMRScenario(WANPresets[row], WANProtocols[col], f, 0)
		})
	rep := &WANReport{Workers: g.Workers, Elapsed: g.Elapsed}
	for row, preset := range WANPresets {
		for col := range WANProtocols {
			cell := measureWANSync(preset, g.Cell(row, col, 0).Result)
			smr := g.Cell(row, col, 1).Result
			cell.Committed = smr.Collector.CommitCount()
			st := smr.Collector.CommitLatencyStats(smr.GST.Add(wanSMRWarmup))
			cell.PerSec, cell.P99 = st.PerSec, st.P99
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep
}

// Table renders the report: one row per preset, per protocol the
// post-GST view-sync latency (in Δ), W_GST in words, and p99 commit
// latency. The rendering is a pure function of the simulated
// executions, so it is byte-identical at every worker count.
func (r *WANReport) Table() *viz.Table {
	var cols []string
	for _, p := range WANProtocols {
		cols = append(cols, string(p)+" sync", string(p)+" W_GST", string(p)+" p99")
	}
	t := viz.GridTable("WAN degradation: view-sync latency after GST (in Δ), W_GST words, and p99 SMR commit latency by topology",
		"topology", WANPresets, cols, func(row, col int) string {
			c := cellAt(r.Cells, len(WANProtocols), row, col/3)
			switch col % 3 {
			case 0:
				return viz.OrStalled(c.Decided, "%.2fΔ", float64(c.SyncLatency)/float64(AttackDelta))
			case 1:
				if !c.Decided {
					return "-"
				}
				return fmt.Sprintf("%dw", c.WindowWords)
			default:
				return viz.OrStalled(c.Committed > 0, "%s", viz.ShortDur(c.P99))
			}
		})
	t.AddNote("presets: single region (control), 3-region WAN, hub-and-spoke, degraded region (0.8Δ straggler ingest)")
	t.AddNote("sync/W_GST from a pre-GST-chaos run (GST=2s); p99 from an SMR run at %d cmd/s, batch %d, stats after %s warmup", wanSMRLoad, wanSMRBatch, wanSMRWarmup)
	return t
}
