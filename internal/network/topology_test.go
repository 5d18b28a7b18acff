package network_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"lumiere/internal/allocgate"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// FuzzTopologyPolicy drives a fuzzed-but-valid regional topology through
// the simulated network and asserts the §2 clamp invariant plus the
// topology's own floor: every message is delivered exactly once inside
// [sendAt + class, max(GST, sendAt)+Δ] — a validated topology is never
// distorted by the clamp post-GST, and the link never beats its own
// latency class.
func FuzzTopologyPolicy(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(5), uint16(40), uint16(10), uint16(500), uint16(600))
	f.Add(int64(2), uint8(1), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0))
	f.Add(int64(3), uint8(4), uint16(90), uint16(90), uint16(0), uint16(1000), uint16(100))
	f.Fuzz(func(t *testing.T, seed int64, regions uint8, intraMs, interMs, jitMs, gstMs, sendMs uint16) {
		delta := 100 * time.Millisecond
		r := int(regions)%4 + 1
		topo := &network.Topology{
			Regions: make([]int, r),
			Intra:   time.Duration(intraMs) * time.Millisecond,
			Inter:   time.Duration(interMs) * time.Millisecond,
			Jitter:  time.Duration(jitMs) * time.Millisecond,
		}
		n := 0
		for i := range topo.Regions {
			topo.Regions[i] = i + 1
			n += i + 1
		}
		if n == 1 { // need a distinct sender and recipient
			topo.Regions[0], n = 2, 2
		}
		// Clamp the draw into validity: class + jitter ≤ Δ.
		if topo.Jitter > delta {
			topo.Jitter = delta
		}
		if topo.Intra+topo.Jitter > delta {
			topo.Intra = delta - topo.Jitter
		}
		if topo.Inter+topo.Jitter > delta {
			topo.Inter = delta - topo.Jitter
		}
		if err := topo.Validate(n, delta); err != nil {
			t.Fatalf("clamped topology invalid: %v", err)
		}

		gst := types.Time(0).Add(time.Duration(gstMs) * time.Millisecond)
		sendAt := types.Time(0).Add(time.Duration(sendMs) * time.Millisecond)
		s := sim.New(seed)
		cfg := types.Config{N: n, F: (n - 1) / 3, Delta: delta, X: types.DefaultX}
		net := network.NewNetLink(s, cfg, gst, topo.Policy())
		to := types.NodeID(n - 1) // last region
		var deliveries []types.Time
		for id := 0; id < n; id++ {
			id := types.NodeID(id)
			if id == to {
				net.Attach(id, network.HandlerFunc(func(types.NodeID, msg.Message) {
					deliveries = append(deliveries, s.Now())
				}))
			} else if id != 0 {
				net.Attach(id, network.HandlerFunc(func(types.NodeID, msg.Message) {}))
			}
		}
		ep := net.Attach(0, network.HandlerFunc(func(types.NodeID, msg.Message) {}))

		s.RunUntil(sendAt)
		ep.Send(to, &msg.ViewMsg{V: 7})
		s.RunFor(time.Duration(gstMs)*time.Millisecond + 10*delta)

		// Node 0 opens the first region and to closes the last one.
		class := topo.Inter
		if topo.R() == 1 {
			class = topo.Intra
		}
		bound := types.MaxTime(gst, sendAt).Add(delta)
		if len(deliveries) != 1 {
			t.Fatalf("deliveries = %d, want exactly 1", len(deliveries))
		}
		if at := deliveries[0]; at < sendAt.Add(class) || at > bound {
			t.Fatalf("delivery at %v outside [%v, %v] (gst=%v class=%v)", at, sendAt.Add(class), bound, gst, class)
		}
	})
}

// TestTopologyValidate pins the descriptive rejections: each malformed
// shape names what is wrong, and in particular a latency class past Δ is
// a scenario error, not a silent clamp.
func TestTopologyValidate(t *testing.T) {
	delta := 50 * time.Millisecond
	ok := func() *network.Topology {
		return &network.Topology{Regions: []int{2, 2}, Intra: time.Millisecond, Inter: 10 * time.Millisecond}
	}
	if err := ok().Validate(4, delta); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*network.Topology)
		n    int
		want string
	}{
		{"no regions", func(tp *network.Topology) { tp.Regions = nil }, 4, "no regions"},
		{"empty region", func(tp *network.Topology) { tp.Regions = []int{4, 0} }, 4, "at least 1"},
		{"wrong n", func(*network.Topology) {}, 5, "scenario has n=5"},
		{"matrix rows", func(tp *network.Topology) { tp.Matrix = [][]time.Duration{{0, 0}} }, 4, "1 rows for 2 regions"},
		{"matrix cols", func(tp *network.Topology) { tp.Matrix = [][]time.Duration{{0}, {0, 0}} }, 4, "row 0 has 1 entries"},
		{"negative intra", func(tp *network.Topology) { tp.Intra = -1 }, 4, "negative latency class"},
		{"negative jitter", func(tp *network.Topology) { tp.Jitter = -1 }, 4, "negative jitter"},
		{"class past delta", func(tp *network.Topology) { tp.Inter = 60 * time.Millisecond }, 4, "exceeds Δ=50ms"},
		{"class plus jitter past delta", func(tp *network.Topology) { tp.Inter, tp.Jitter = 45*time.Millisecond, 10*time.Millisecond }, 4, "exceeds Δ=50ms"},
		{"matrix past delta", func(tp *network.Topology) {
			tp.Matrix = [][]time.Duration{{0, time.Hour}, {0, 0}}
		}, 4, "from region 0 to 1"},
		{"proc delays len", func(tp *network.Topology) { tp.ProcDelays = []time.Duration{1} }, 4, "1 proc delays for 2 regions"},
		{"negative proc delay", func(tp *network.Topology) { tp.ProcDelays = []time.Duration{-1, 0} }, 4, "negative proc delay"},
		{"isolated range", func(tp *network.Topology) { tp.Isolated = []int{2} }, 4, "out of range"},
		{"isolated dup", func(tp *network.Topology) { tp.Isolated = []int{1, 1} }, 4, "isolated twice"},
		{"negative heal", func(tp *network.Topology) { tp.IsolateHeal = -1 }, 4, "negative isolate heal"},
	}
	for _, c := range cases {
		tp := ok()
		c.mut(tp)
		err := tp.Validate(c.n, delta)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestTopologyAllocs pins the compiled policy's Link path at zero
// allocations — it sits on the per-transmission hot path of every
// massive-n WAN sweep.
func TestTopologyAllocs(t *testing.T) {
	topo := &network.Topology{
		Regions: []int{3, 3, 2},
		Intra:   2 * time.Millisecond,
		Inter:   30 * time.Millisecond,
		Jitter:  5 * time.Millisecond,
	}
	p := topo.Policy()
	rng := rand.New(rand.NewSource(1))
	m := &msg.ViewMsg{V: 1}
	var sink network.Verdict
	allocs := allocgate.PerRun(t, 1000, func() {
		sink = p.Link(0, 7, m, types.Time(1e9), rng)
	})
	if allocs != 0 {
		t.Fatalf("Link allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}

// TestTopologyMatrixAsymmetry: a Matrix override is read row=sender,
// column=recipient and may be asymmetric.
func TestTopologyMatrixAsymmetry(t *testing.T) {
	topo := &network.Topology{
		Regions: []int{1, 1},
		Matrix: [][]time.Duration{
			{0, 10 * time.Millisecond},
			{40 * time.Millisecond, 0},
		},
	}
	if err := topo.Validate(2, 50*time.Millisecond); err != nil {
		t.Fatalf("asymmetric matrix rejected: %v", err)
	}
	p := topo.Policy()
	rng := rand.New(rand.NewSource(1))
	m := &msg.ViewMsg{V: 1}
	if d := p.Link(0, 1, m, 0, rng).Delay; d != 10*time.Millisecond {
		t.Fatalf("0→1 delay = %v, want 10ms", d)
	}
	if d := p.Link(1, 0, m, 0, rng).Delay; d != 40*time.Millisecond {
		t.Fatalf("1→0 delay = %v, want 40ms", d)
	}
}

// TestTopologyNodeMaps pins the region bookkeeping: per-region proc
// delays expanded per node in ID order, and isolated regions turned into
// partition groups.
func TestTopologyNodeMaps(t *testing.T) {
	topo := &network.Topology{
		Regions:    []int{2, 1, 3},
		ProcDelays: []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond},
		Isolated:   []int{2, 0},
	}
	pd := topo.NodeProcDelays()
	want := []time.Duration{0, 0, 5 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	if len(pd) != len(want) {
		t.Fatalf("NodeProcDelays len = %d, want %d", len(pd), len(want))
	}
	for i := range want {
		if pd[i] != want[i] {
			t.Errorf("NodeProcDelays[%d] = %v, want %v", i, pd[i], want[i])
		}
	}
	groups := topo.IslandGroups()
	if len(groups) != 2 {
		t.Fatalf("IslandGroups = %d groups, want 2", len(groups))
	}
	if len(groups[0]) != 3 || groups[0][0] != 3 || groups[0][2] != 5 {
		t.Errorf("island for region 2 = %v, want [3 4 5]", groups[0])
	}
	if len(groups[1]) != 2 || groups[1][0] != 0 || groups[1][1] != 1 {
		t.Errorf("island for region 0 = %v, want [0 1]", groups[1])
	}
}

// TestPreGSTChaosLink: a pre-GST send rides the maximal delay (clamped
// to GST+Δ by the network); at and after GST the base topology rules.
func TestPreGSTChaosLink(t *testing.T) {
	topo := &network.Topology{Regions: []int{1, 1}, Inter: 10 * time.Millisecond}
	gst := types.Time(0).Add(2 * time.Second)
	p := network.PreGSTChaosLink{GST: gst, Base: topo.Policy()}
	rng := rand.New(rand.NewSource(1))
	m := &msg.ViewMsg{V: 1}
	if d := p.Link(0, 1, m, gst-1, rng).Delay; d < time.Hour {
		t.Fatalf("pre-GST delay = %v, want maximal", d)
	}
	if d := p.Link(0, 1, m, gst, rng).Delay; d != 10*time.Millisecond {
		t.Fatalf("post-GST delay = %v, want the topology's 10ms", d)
	}
}
