package harness

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/metrics"
	"lumiere/internal/network"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// clusterDelta is Δ for the loopback tests: loopback δ is far below it.
const clusterDelta = 50 * time.Millisecond

// TestClusterExperimentSmoke boots a small loopback cluster over real
// sockets and checks the wall-clock measurement plumbing end to end:
// decisions land, words are counted, and per-node stats come back.
func TestClusterExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	res, err := RunCluster(Scenario{F: 1, Delta: clusterDelta, Seed: 7, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario.N != 4 || res.Scenario.F != 1 {
		t.Fatalf("cluster shape n=%d f=%d, want 4/1", res.Scenario.N, res.Scenario.F)
	}
	col := res.Collector
	d, ok := col.FirstDecisionAfter(0)
	if !ok {
		t.Fatal("no decisions on a healthy loopback cluster")
	}
	if lat := d.At.Sub(0); lat <= 0 || lat > res.Elapsed {
		t.Fatalf("implausible sync latency %v (elapsed %v)", lat, res.Elapsed)
	}
	if col.WordsTotal() <= 0 || col.HonestSends() <= 0 || col.Stats(0, clusterWarmup+1).Count == 0 {
		t.Fatalf("measures missing: words=%d sends=%d decisions=%d",
			col.WordsTotal(), col.HonestSends(), col.DecisionCount())
	}
	if len(res.Stats) != res.Scenario.N {
		t.Fatalf("per-node stats: %d, want %d", len(res.Stats), res.Scenario.N)
	}
}

// TestClusterExperimentSMR runs the SMR workload on the loopback
// cluster and checks commands commit.
func TestClusterExperimentSMR(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	res, err := RunCluster(Scenario{
		F: 1, Delta: clusterDelta, Seed: 11, SMR: true,
		Workload: &workload.Config{Rate: 50}, Duration: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("workload injected no commands")
	}
	if res.Committed == 0 {
		t.Fatal("no node committed any block")
	}
}

// TestClusterInjectorDeliversRate: the injector is open-loop on absolute
// due times, so it never injects more than the schedule has due, and it
// has no period to underflow at rates above 10⁹/s. How much of the
// schedule a wall-clock run achieves depends on the machine's load, so
// the share is reported, not asserted (the exact-rate contract is the
// pacer's, pinned by TestInjectorExactRate).
func TestClusterInjectorDeliversRate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	s := Scenario{
		F: 1, Delta: clusterDelta, Seed: 11, SMR: true,
		Workload: &workload.Config{Rate: 500}, Duration: 2 * time.Second,
	}
	res, err := RunCluster(s)
	if err != nil {
		t.Fatal(err)
	}
	due := int(workload.DueBy(s.Workload.Rate, int64(s.Duration)))
	if res.Injected <= 0 || res.Injected > due {
		t.Fatalf("injected %d commands, want 1..%d (the schedule's due count)", res.Injected, due)
	}
	t.Logf("injected %d of %d due commands (%.1f%%)", res.Injected, due, 100*float64(res.Injected)/float64(due))
	if res.Committed == 0 {
		t.Fatal("no node committed any block")
	}
	s.Workload, s.Duration = &workload.Config{Rate: 2_000_000_000}, 20*time.Millisecond
	if res, err = RunCluster(s); err != nil {
		t.Fatalf("rate above 1e9/s: %v", err)
	} else if res.Injected == 0 {
		t.Fatal("rate above 1e9/s: injected no commands")
	}
}

// TestClusterChaosLoss runs the loopback cluster under pre-GST loss and
// checks the cluster still decides after GST — the socket-level clamp
// releasing "lost" messages at GST+Δ.
func TestClusterChaosLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	res, err := RunCluster(Scenario{
		F: 1, Delta: clusterDelta, Seed: 13, Duration: 3 * time.Second,
		Loss: 0.3, LossUntil: 800 * time.Millisecond, GST: 800 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gst := types.Time(0).Add(res.Scenario.GST)
	d, ok := res.Collector.FirstDecisionAfter(gst)
	if !ok {
		t.Fatal("cluster failed to decide after GST despite the clamp")
	}
	if lat := d.At.Sub(gst); lat <= 0 {
		t.Fatalf("sync latency %v, want > 0", lat)
	}
}

// TestClusterChurnCorruption gives churn as a BehaviorChurn corruption
// on an SMR cluster under client load: the churned node's conditioner
// goes down (it drops the Requests its Submit forwards), comes back (it
// leads decisions again, so it receives votes), and the cluster decides
// after the return. Progress during the downtime is not asserted: the
// leader schedule gives the churned node runs of consecutive views, and
// each run it spends down stalls the cluster for its timeouts. The
// churned node's decisions are read from its own collector, since the
// cluster's merged measures leave them out.
func TestClusterChurnCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	const churned = types.NodeID(3)
	up := 1500 * time.Millisecond
	s := Scenario{
		F: 1, Delta: clusterDelta, Seed: 17, SMR: true,
		Workload: &workload.Config{Rate: 50}, Duration: 3 * time.Second,
		Corruptions: []adversary.Corruption{
			adversary.Churn(churned, adversary.Downtime{From: 500 * time.Millisecond, To: up}),
		},
	}
	nodes, closeAll, err := StartCluster(s)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	InjectCommands(nodes, int(s.Workload.Rate), s.Duration)
	var dropped int64
	for _, p := range nodes[churned].Stats().Peers {
		dropped += p.CondDrops
	}
	if dropped == 0 {
		t.Fatal("the churned node dropped nothing: its conditioner never went down")
	}
	back := types.Time(0).Add(up)
	var led, after int
	for i, n := range nodes {
		for _, d := range n.Metrics().Decisions() {
			if d.At <= back {
				continue
			}
			after++
			if types.NodeID(i) == churned {
				led++
			}
		}
	}
	if after == 0 {
		t.Fatal("no decision after the churned node's return")
	}
	if led == 0 {
		t.Fatalf("the churned node led none of the %d decisions after its return", after)
	}
	t.Logf("churned node dropped %d sends while down, led %d of %d decisions after its return", dropped, led, after)
}

// TestClusterChurnedNodeUncharged pins the §2 accounting on the cluster:
// a churned node is charged nothing, as the simulator's run marks it
// Byzantine. The merged collector's words and sends equal the sum over
// the other nodes' own collectors, and none of its decisions is the
// churned node's, although that node sent and led decisions.
func TestClusterChurnedNodeUncharged(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	const churned = types.NodeID(3)
	s := Scenario{
		F: 1, Delta: clusterDelta, Seed: 19, Duration: 1500 * time.Millisecond,
		Corruptions: []adversary.Corruption{
			adversary.Churn(churned, adversary.Downtime{From: 500 * time.Millisecond, To: time.Second}),
		},
	}
	nodes, closeAll, err := StartCluster(s)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	time.Sleep(s.Duration)
	snaps := make([]*metrics.Collector, len(nodes))
	for i, n := range nodes {
		snaps[i] = n.Metrics()
	}
	if snaps[churned].WordsTotal() == 0 || snaps[churned].DecisionCount() == 0 {
		t.Fatalf("the churned node sent %d words and led %d decisions; the test needs both",
			snaps[churned].WordsTotal(), snaps[churned].DecisionCount())
	}
	var words, sends int64
	var decisions int
	for i, c := range snaps {
		if types.NodeID(i) != churned {
			words += c.WordsTotal()
			sends += c.HonestSends()
			decisions += c.DecisionCount()
		}
	}
	merged := honestMetrics(s, snaps)
	if merged.WordsTotal() != words || merged.HonestSends() != sends {
		t.Fatalf("merged words=%d sends=%d, want the honest nodes' %d and %d (the churned node's: %d and %d)",
			merged.WordsTotal(), merged.HonestSends(), words, sends,
			snaps[churned].WordsTotal(), snaps[churned].HonestSends())
	}
	if merged.DecisionCount() != decisions {
		t.Fatalf("merged decisions=%d, want the honest nodes' %d", merged.DecisionCount(), decisions)
	}
	for _, d := range merged.Decisions() {
		if d.Leader == churned {
			t.Fatalf("merged decisions include the churned node's %+v", d)
		}
	}
}

// TestClusterProcDelays: StartCluster gives every node the scenario's
// ProcDelays, so each sender's conditioner holds its envelopes to the
// straggler, node 3, and none to the others.
func TestClusterProcDelays(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	const straggler = types.NodeID(3)
	res, err := RunCluster(Scenario{F: 1, Delta: clusterDelta, Seed: 29, Duration: time.Second,
		ProcDelays: []time.Duration{straggler: clusterDelta}})
	if err != nil {
		t.Fatal(err)
	}
	for from, st := range res.Stats {
		for to, p := range st.Peers {
			if held := p.Delayed > 0; held != (to == straggler) {
				t.Errorf("node %d held %d envelopes to node %d; want some to node %d only", from, p.Delayed, to, straggler)
			}
		}
	}
}

// TestClusterExperimentValidation checks the omission-budget guard:
// MaxSenders beyond F violates the §2 model and must be rejected.
func TestClusterExperimentValidation(t *testing.T) {
	_, err := RunCluster(Scenario{
		F: 1, Duration: time.Second,
		OmissionBudget: network.OmissionBudget{MaxMessages: 10, MaxSenders: 2},
	})
	if err == nil {
		t.Fatal("RunCluster accepted an omission budget with MaxSenders > f")
	}
}

// TestClusterRejectsUnrealizedFields gives every Scenario field the TCP
// cluster does not realize a non-zero value, one at a time, and expects
// an error naming it — so a field added to Scenario is rejected on TCP
// until the cluster wires it. Every case fails before a socket opens.
func TestClusterRejectsUnrealizedFields(t *testing.T) {
	valid := Scenario{F: 1, Duration: time.Second}
	st := reflect.TypeOf(valid)
	for name := range clusterFields {
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("clusterFields names %q, which Scenario does not have", name)
		}
	}
	type testCase struct {
		name string
		s    Scenario
	}
	var cases []testCase
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if clusterFields[f.Name] {
			continue
		}
		s := valid
		reflect.ValueOf(&s).Elem().Field(i).Set(nonZero(t, f.Type))
		cases = append(cases, testCase{"Scenario." + f.Name, s})
	}
	if want := st.NumField() - len(clusterFields); len(cases) != want {
		t.Fatalf("%d rejected fields, want %d", len(cases), want)
	}
	wt := reflect.TypeOf(workload.Config{})
	for i := 0; i < wt.NumField(); i++ {
		f := wt.Field(i)
		if f.Name == "Rate" {
			continue
		}
		w := workload.Config{Rate: 10}
		reflect.ValueOf(&w).Elem().Field(i).Set(nonZero(t, f.Type))
		s := valid
		s.SMR, s.Workload = true, &w
		cases = append(cases, testCase{"Scenario.Workload." + f.Name, s})
	}
	crash := valid
	crash.Corruptions = adversary.CrashSet(3)
	cases = append(cases, testCase{"Scenario.Corruptions[0]", crash})
	outside := valid
	outside.Corruptions = []adversary.Corruption{adversary.Churn(4)}
	cases = append(cases, testCase{"corruption names processor 4", outside})

	for _, tc := range cases {
		nodes, _, err := StartCluster(tc.s)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: err = %v, want one naming it", tc.name, err)
		}
		if nodes != nil {
			t.Errorf("%s: nodes started", tc.name)
		}
	}
}

// nonZero returns a non-zero value of type typ.
func nonZero(t *testing.T, typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(typ.Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(typ, 1, 1))
	case reflect.Func:
		v.Set(reflect.MakeFunc(typ, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, typ.NumOut())
			for i := range out {
				out[i] = reflect.Zero(typ.Out(i))
			}
			return out
		}))
	case reflect.Struct:
		v.Field(0).Set(nonZero(t, typ.Field(0).Type))
	case reflect.Interface:
		for _, impl := range []any{network.Fixed{}, network.DelayLink{}} {
			if reflect.TypeOf(impl).Implements(typ) {
				v.Set(reflect.ValueOf(impl))
			}
		}
	}
	if v.IsZero() {
		t.Fatalf("no non-zero value for %v", typ)
	}
	return v
}

// TestClusterProtocolParity runs every protocol over loopback sockets —
// one node constructor for both runtimes — and holds its words per
// decision to the simulated cell's at the same n, Δ and horizon, with δ
// near the loopback latency. Both runtimes are read over the same views:
// from the cluster's first to its last decision in (0.5 s, 1.9 s], past
// boot and clear of the horizon, the words sent between those two
// decisions over the decisions after the first. Matching views, not
// instants, keeps LP22's and RareSync's alternating epoch and plain views
// in the same mix however late a starved node's timers fire, as they do
// when the seven clusters, which run at once, share 2 cores under -race.
func TestClusterProtocolParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	const horizon = 2 * time.Second
	from, cut := types.Time(500*time.Millisecond), types.Time(1900*time.Millisecond)
	protocols := append([]Protocol{ProtoRareSync}, AllProtocols...)
	results := make([]*ClusterResult, len(protocols))
	errs := make([]error, len(protocols))
	var wg sync.WaitGroup
	for i, p := range protocols {
		wg.Add(1)
		go func(i int, p Protocol) {
			defer wg.Done()
			results[i], errs[i] = RunCluster(Scenario{Protocol: p, F: 1, Delta: clusterDelta, Seed: 23, Duration: horizon})
		}(i, p)
	}
	wg.Wait()
	// perDecision returns c's decisions of views in (lo, hi] and the words
	// sent between its decisions of views lo and hi per such decision; it
	// fails t when c decided view lo or no view in (lo, hi] at all.
	perDecision := func(t *testing.T, side string, c *metrics.Collector, lo, hi types.View) (int, float64) {
		t.Helper()
		var first, last types.Time
		n, sawLo := 0, false
		for _, d := range c.Decisions() {
			switch {
			case d.View == lo:
				first, sawLo = d.At, true
			case d.View > lo && d.View <= hi:
				n++
				last = d.At
			}
		}
		if !sawLo || n == 0 {
			t.Fatalf("%s: decided view %d: %v; views in (%d, %d]: %d, want both", side, lo, sawLo, lo, hi, n)
		}
		return n, float64(c.WordsBetween(first, last)) / float64(n)
	}
	for i, p := range protocols {
		i, p := i, p
		t.Run(string(p), func(t *testing.T) {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			tcp := results[i].Collector
			if tcp.DecisionCount() < 5 {
				t.Fatalf("%d decisions over sockets, want ≥ 5", tcp.DecisionCount())
			}
			var in []types.View
			for _, d := range tcp.Decisions() {
				if d.At > from && d.At <= cut {
					in = append(in, d.View)
				}
			}
			if len(in) < 2 {
				t.Fatalf("%d decisions over sockets in (%v, %v], want ≥ 2", len(in), from, cut)
			}
			lo, hi := in[0], in[len(in)-1]
			tcpN, tcpWords := perDecision(t, "tcp", tcp, lo, hi)
			simN, simWords := perDecision(t, "sim", Run(Scenario{Protocol: p, F: 1, Delta: clusterDelta,
				DeltaActual: 200 * time.Microsecond, Seed: 23, Duration: horizon}).Collector, lo, hi)
			ratio := tcpWords / simWords
			t.Logf("views (%d, %d]: tcp %.1f words over %d decisions, sim %.1f over %d: ratio %.3f",
				lo, hi, tcpWords, tcpN, simWords, simN, ratio)
			if ratio < 0.9 || ratio > 1.1 {
				t.Errorf("tcp/sim words per decision = %.3f, want within ±10%%", ratio)
			}
		})
	}
}
