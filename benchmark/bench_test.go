package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"lumiere/internal/harness"
	"lumiere/internal/workload"
)

func TestMedianAndPercentileIndex(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of empty sample = %v, want 0", got)
	}
	// The repository's convention: element ⌊n·p/100⌋.
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 50, 50}, {100, 99, 99}, {1000, 99, 990}, {7, 50, 3}, {1, 99, 0}, {10, 100, 9}} {
		if got := percentileIndex(c.n, c.p); got != c.want {
			t.Errorf("percentileIndex(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// The tail is p99 only when at least ten samples lie beyond it;
// otherwise it is the highest percentile that has ten beyond it.
func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, idx int
	}{
		{10000, 9900}, // p99 has 99 beyond
		{1100, 1089},  // p99 has exactly 10 beyond
		{1000, 989},   // p99 would have 9 beyond: step down
		{80, 69},      // the sweep's 80 cells: p86.25
		{21, 10},      // only the median has ten beyond
		{5, 2},        // too small for either: the median
		{1, 0},
	} {
		idx, pct := tailIndex(c.n)
		if idx != c.idx {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, idx, c.idx)
		}
		if beyond := c.n - 1 - idx; c.n > 2*tailBeyond && beyond < tailBeyond {
			t.Errorf("tailIndex(%d) leaves %d samples beyond, want ≥ %d", c.n, beyond, tailBeyond)
		}
		if want := 100 * float64(idx) / float64(c.n); pct != want {
			t.Errorf("tailIndex(%d) percentile = %v, want %v", c.n, pct, want)
		}
	}
	s := summarize([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 0})
	if s.N != 10 || s.P50 != 5 || s.Mean != 4.5 || s.Tail != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

// The latency of command i runs from dueNs(rate, i), which must be the
// instant the generator's pacer releases it, and the measured window
// must begin at the first command due after the warm-up.
func TestDueTimesFollowThePacer(t *testing.T) {
	for _, rate := range []int64{1, 333, 500, 1000, 6000} {
		p := workload.NewPacer(rate)
		for i := int64(0); i < 3000; i++ {
			if got, want := dueNs(rate, i), p.NextAtNs(); got != want {
				t.Fatalf("rate %d: dueNs(%d) = %d, pacer releases at %d", rate, i, got, want)
			}
			if p.Take() != i {
				t.Fatalf("rate %d: pacer lost count at %d", rate, i)
			}
		}
		// Exactly rate commands are due in each whole second: no drift.
		if got := workload.DueBy(rate, int64(3*time.Second)); got != 3*rate {
			t.Errorf("rate %d: %d commands due in 3 s, want %d", rate, got, 3*rate)
		}
		first := workload.DueBy(rate, int64(tcpWarmup))
		if dueNs(rate, first) <= int64(tcpWarmup) || (first > 0 && dueNs(rate, first-1) > int64(tcpWarmup)) {
			t.Errorf("rate %d: command %d is not the first due after the warm-up", rate, first)
		}
	}
}

func TestPayloadCarriesItsIndex(t *testing.T) {
	pad := payloadPad(3)
	for _, i := range []int64{0, 1, 63, 64, 12345, 1 << 40} {
		if got := payloadIndex(payloadFor(i, pad)); got != i {
			t.Errorf("payloadIndex(payloadFor(%d)) = %d", i, got)
		}
	}
	for _, p := range []string{"", "GET key1", "SET key1", "SET key1 12", "SET key1 x|", "SET probe 1"} {
		if got := payloadIndex([]byte(p)); got != -1 {
			t.Errorf("payloadIndex(%q) = %d, want -1", p, got)
		}
	}
}

// Self time is duration minus the part child spans cover, so the self
// times under a root add up to the root's duration.
func TestSpanSelfTimeArithmetic(t *testing.T) {
	var clock int64
	r := &recorder{now: func() int64 { return clock }}
	at := func(ns int64) { clock = ns }

	at(0)
	r.begin(spDeliver) // root: 0..100
	at(10)
	r.begin(spCoreHandle) // 10..70
	at(20)
	r.begin(spVerifyAgg) // 20..50
	at(50)
	r.end()
	at(55)
	r.begin(spBroadcast) // 55..65
	at(65)
	r.end()
	at(70)
	r.end()
	at(80)
	r.begin(spVerifyAgg) // 80..90, a second call directly under the root
	at(90)
	r.end()
	at(100)
	r.end()

	want := map[spanName]spanStat{
		spDeliver:    {Calls: 1, Total: 100, Self: 100 - 60 - 10},
		spCoreHandle: {Calls: 1, Total: 60, Self: 60 - 30 - 10},
		spVerifyAgg:  {Calls: 2, Total: 40, Self: 40},
		spBroadcast:  {Calls: 1, Total: 10, Self: 10},
	}
	var selfSum int64
	for n, w := range want {
		if got := r.stats[n]; got != w {
			t.Errorf("%s: %+v, want %+v", spanNames[n], got, w)
		}
		selfSum += r.stats[n].Self
	}
	if selfSum != r.stats[spDeliver].Total {
		t.Errorf("self times sum to %d, root lasted %d", selfSum, r.stats[spDeliver].Total)
	}

	// Retained spans name their cause and share the root's request id.
	if len(r.retained) != 5 {
		t.Fatalf("%d spans retained, want 5", len(r.retained))
	}
	for i, wantParent := range []int32{-1, 0, 1, 1, 0} {
		if s := r.retained[i]; s.Parent != wantParent || s.Req != 1 || s.End <= s.Start {
			t.Errorf("span %d = %+v, want parent %d, req 1", i, s, wantParent)
		}
	}
	at(200)
	r.begin(spCoreTimer)
	at(210)
	r.end()
	if s := r.retained[5]; s.Parent != -1 || s.Req != 2 {
		t.Errorf("second root = %+v, want parent -1, req 2", s)
	}

	other := &recorder{now: r.now}
	other.merge(r)
	other.merge(r)
	if got := other.stats[spVerifyAgg]; got != (spanStat{Calls: 4, Total: 80, Self: 80}) {
		t.Errorf("merged stats = %+v", got)
	}
}

// T1 faithfulness: the stack assembled from public constructors, with
// every decorator in place, must reproduce harness.Run exactly — view
// synchronization alone, with a crashed replica, and SMR under load.
func TestAssembledStackIsFaithful(t *testing.T) {
	sync := simSyncN61.scenario(7)
	sync.N, sync.F, sync.Duration = 4, 1, 2*time.Second
	crash := simSyncN1024.scenario(7)
	crash.N, crash.F, crash.Duration = 7, 2, 2*time.Second
	smr := simSMRN4.scenario(7)
	smr.Duration = 2 * time.Second
	for _, s := range []harness.Scenario{sync, crash, smr} {
		ref := harness.Run(s)
		if ref.DecisionCount() == 0 {
			t.Fatalf("%s: reference run made no decision", s.Name)
		}
		a, err := runAssembled(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, bad := range a.faithful(ref) {
			t.Errorf("%s: %s", s.Name, bad)
		}
		if len(a.rec.stack) != 0 {
			t.Errorf("%s: %d spans left open", s.Name, len(a.rec.stack))
		}
		root := a.rec.stats[spRoot]
		var self int64
		for i := range a.rec.stats {
			self += a.rec.stats[i].Self
		}
		if root.Calls != 1 || self != root.Total {
			t.Errorf("%s: self times sum to %d ns, the root span lasted %d ns", s.Name, self, root.Total)
		}
		if s.SMR && (a.blocks == 0 || a.submitted == 0 || a.rec.stats[spApply].Calls == 0) {
			t.Errorf("%s: SMR layers saw no work: %d blocks, %d submitted", s.Name, a.blocks, a.submitted)
		}
	}
	unsupported := sync
	unsupported.Protocol = harness.ProtoLP22
	if _, err := runAssembled(unsupported); err == nil {
		t.Error("runAssembled accepted a protocol it does not build")
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics with the same units, within the contract's limits.
func TestCatalogMatchesContract(t *testing.T) {
	b, err := os.ReadFile("../" + contractPath)
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(c.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	setup := false
	for i, m := range c.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("end-to-end %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		seen[m.Name] = true
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(c.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (limit 128)", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestGoldenPinsEverySimWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != goldenSeed {
		t.Errorf("golden.json pins seed %d, the program checks seed %d", g.Seed, goldenSeed)
	}
	for _, w := range []string{"sim-sync-n61", "sim-sync-n1024", "sim-smr-n4", "sim-sweep-eval"} {
		if len(g.Workloads[w]) == 0 {
			t.Errorf("golden.json pins nothing for %s", w)
		}
	}
	o := newOutcome()
	o.pin("events", 1)
	checkGolden("sim-sync-n61", goldenSeed, o)
	if len(o.Problems) == 0 {
		t.Error("a run that disagrees with golden.json passed the check")
	}
	o = newOutcome()
	o.pin("events", 1)
	checkGolden("sim-sync-n61", goldenSeed+1, o)
	if len(o.Problems) != 0 {
		t.Errorf("a run at another seed was checked against the pin: %v", o.Problems)
	}
}
