package adversary

import (
	"math/rand"
	"testing"
	"time"

	"lumiere/internal/allocgate"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/types"
)

// fakeEnv builds an Env over recording closures, with a 4-node config,
// GST at 1s, node 3 corrupted, and round-robin leaders.
type fakeEnv struct {
	env       *Env
	silenced  []types.NodeID
	revived   []types.NodeID
	broadcast []msg.Message
	afters    []struct {
		d  time.Duration
		fn func()
	}
	ats []struct {
		t  types.Time
		fn func()
	}
}

func newFakeEnv() *fakeEnv {
	f := &fakeEnv{}
	base := network.LinkFunc(func(_, _ types.NodeID, _ msg.Message, _ types.Time, _ *rand.Rand) network.Verdict {
		return network.Verdict{Delay: time.Millisecond}
	})
	f.env = &Env{
		Cfg:       types.NewConfig(1, 100*time.Millisecond), // n=4, f=1
		GST:       types.Time(0).Add(time.Second),
		Corrupted: []types.NodeID{3},
		Leader:    func(v types.View) types.NodeID { return types.NodeID(int64(v) % 4) },
		Now:       func() types.Time { return 0 },
		At: func(t types.Time, fn func()) {
			f.ats = append(f.ats, struct {
				t  types.Time
				fn func()
			}{t, fn})
		},
		After: func(d time.Duration, fn func()) {
			f.afters = append(f.afters, struct {
				d  time.Duration
				fn func()
			}{d, fn})
		},
		Silence:   func(id types.NodeID) { f.silenced = append(f.silenced, id) },
		Unsilence: func(id types.NodeID) { f.revived = append(f.revived, id) },
		Broadcast: func(_ types.NodeID, m msg.Message) { f.broadcast = append(f.broadcast, m) },
		SyncMsg: func(from types.NodeID, v types.View) msg.Message {
			return &msg.EpochViewMsg{V: v}
		},
		Base: base,
	}
	return f
}

func TestAttackSpecFactory(t *testing.T) {
	for _, name := range AttackNames() {
		s, err := AttackSpec{Name: name}.Strategy()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("strategy %q reports name %q", name, s.Name())
		}
	}
	if _, err := (AttackSpec{Name: "nope"}).Strategy(); err == nil {
		t.Fatal("unknown strategy name must error")
	}
	if (AttackSpec{}).Enabled() {
		t.Fatal("zero spec must be disabled")
	}
	if !(AttackSpec{Name: AttackSaturate}).Enabled() {
		t.Fatal("named spec must be enabled")
	}
}

// TestViewDesyncCutsAfterStride drives the desynchronizer with honest
// certificate traffic: after the frontier advances f+1 views it must
// silence the corrupted set, stay down until the silence window
// callback fires, then be ready to cut again.
func TestViewDesyncCutsAfterStride(t *testing.T) {
	f := newFakeEnv()
	s := &ViewDesync{}
	s.Init(f.env)
	if s.SilenceFor != 20*f.env.Cfg.Delta {
		t.Fatalf("default silence window = %v", s.SilenceFor)
	}
	cert := func(v types.View) Observation {
		return Observation{Event: HookSend, Kind: msg.KindQC, View: v, Node: 0, Honest: true}
	}
	s.Observe(cert(1)) // frontier 1 < stride 2
	if len(f.silenced) != 0 {
		t.Fatal("cut before the stride advanced")
	}
	s.Observe(cert(2)) // frontier 2 = lastCut(0) + f+1
	if len(f.silenced) != 1 || f.silenced[0] != 3 {
		t.Fatalf("silenced = %v, want [3]", f.silenced)
	}
	s.Observe(cert(9)) // down: no second cut
	if len(f.silenced) != 1 {
		t.Fatal("cut while already down")
	}
	if len(f.afters) != 1 {
		t.Fatalf("afters = %d, want the revive callback", len(f.afters))
	}
	f.afters[0].fn() // silence window expires
	if len(f.revived) != 1 || f.revived[0] != 3 {
		t.Fatalf("revived = %v, want [3]", f.revived)
	}
	s.Observe(cert(11)) // frontier 11 ≥ lastCut(2... now 9) + 2
	if len(f.silenced) != 2 {
		t.Fatalf("no second cut after revival; silenced = %v", f.silenced)
	}
	// Byzantine and non-certificate traffic must not move the frontier.
	s2 := &ViewDesync{}
	f2 := newFakeEnv()
	s2.Init(f2.env)
	s2.Observe(Observation{Event: HookSend, Kind: msg.KindQC, View: 50, Honest: false})
	s2.Observe(Observation{Event: HookSend, Kind: msg.KindProposal, View: 50, Honest: true})
	if len(f2.silenced) != 0 {
		t.Fatal("frontier moved on ignored traffic")
	}
}

// TestLeaderTargetVerdicts checks the sliding target window: traffic
// touching one of the next K leaders is omitted, everything else passes
// through the base policy.
func TestLeaderTargetVerdicts(t *testing.T) {
	f := newFakeEnv()
	s := &LeaderTarget{}
	s.Init(f.env)
	if s.K != f.env.Cfg.F {
		t.Fatalf("default K = %d, want f", s.K)
	}
	rng := rand.New(rand.NewSource(1))
	m := &msg.ViewMsg{V: 1}
	// Frontier 0: the single target is Leader(1) = node 1.
	if v := s.Link(1, 2, m, 0, rng); !v.Drop {
		t.Fatal("traffic from upcoming leader not omitted")
	}
	if v := s.Link(2, 1, m, 0, rng); !v.Drop {
		t.Fatal("traffic to upcoming leader not omitted")
	}
	if v := s.Link(0, 2, m, 0, rng); v.Drop || v.Delay != time.Millisecond {
		t.Fatalf("untargeted traffic altered: %+v", v)
	}
	// Entering view 2 slides the window: target becomes Leader(3) = 3.
	s.Observe(Observation{Event: HookEnterView, Node: 0, View: 2})
	if v := s.Link(1, 2, m, 0, rng); v.Drop {
		t.Fatal("stale target still omitted after the window slid")
	}
	if v := s.Link(3, 2, m, 0, rng); !v.Drop {
		t.Fatal("new target not omitted")
	}
}

// TestGSTStraddleLink checks the boundary: base scheduling before GST,
// the Δ bound after, and the corrupted set scheduled to vanish at GST.
func TestGSTStraddleLink(t *testing.T) {
	f := newFakeEnv()
	s := &GSTStraddle{}
	s.Init(f.env)
	if len(f.ats) != 1 || f.ats[0].t != f.env.GST {
		t.Fatalf("silence not scheduled at GST: %+v", f.ats)
	}
	f.ats[0].fn()
	if len(f.silenced) != 1 || f.silenced[0] != 3 {
		t.Fatalf("silenced = %v, want [3]", f.silenced)
	}
	rng := rand.New(rand.NewSource(1))
	m := &msg.ViewMsg{V: 1}
	if v := s.Link(0, 1, m, 0, rng); v.Delay != time.Millisecond {
		t.Fatalf("pre-GST verdict %+v, want base", v)
	}
	if v := s.Link(0, 1, m, f.env.GST, rng); v.Delay != maxDelay {
		t.Fatalf("post-GST verdict %+v, want the bound", v)
	}
}

// TestComplexitySaturateSpamTick checks the spam loop: each tick
// broadcasts one protocol-legal sync message per corrupted node for the
// view above the observed frontier, then re-arms. Dark nodes (holding a
// leadership slot) cannot send.
func TestComplexitySaturateSpamTick(t *testing.T) {
	f := newFakeEnv()
	s := &ComplexitySaturate{}
	s.Init(f.env)
	if s.Period != f.env.Cfg.Delta {
		t.Fatalf("default period = %v, want Δ", s.Period)
	}
	if len(f.afters) != 1 {
		t.Fatalf("tick not armed: %d afters", len(f.afters))
	}
	// Node 3 leads neither view 4 nor 5: it stays up and spams.
	s.Observe(Observation{Event: HookEnterView, Node: 0, View: 4})
	f.afters[0].fn()
	if len(f.broadcast) != 1 {
		t.Fatalf("broadcasts = %d, want one per corrupted node", len(f.broadcast))
	}
	if v := f.broadcast[0].View(); v != 5 {
		t.Fatalf("spam view = %v, want frontier+1", v)
	}
	if len(f.afters) != 2 {
		t.Fatal("tick did not re-arm")
	}
}

// TestComplexitySaturateLeaderDarkness checks the leadership-slot
// silencing: a corrupted processor goes dark while it holds the current
// or next leader slot, is revived after, and does not spam while dark.
func TestComplexitySaturateLeaderDarkness(t *testing.T) {
	f := newFakeEnv()
	s := &ComplexitySaturate{}
	s.Init(f.env)
	enter := func(v types.View) Observation {
		return Observation{Event: HookEnterView, Node: 0, View: v}
	}
	s.Observe(enter(1)) // leaders of 1, 2 are nodes 1, 2: node 3 stays up
	if len(f.silenced) != 0 {
		t.Fatalf("silenced at frontier 1: %v", f.silenced)
	}
	s.Observe(enter(2)) // leader of 3 is node 3: dark before its slot
	if len(f.silenced) != 1 || f.silenced[0] != 3 {
		t.Fatalf("silenced = %v, want [3]", f.silenced)
	}
	f.afters[0].fn() // spam tick while dark: nothing sent
	if len(f.broadcast) != 0 {
		t.Fatal("dark node spammed")
	}
	s.Observe(enter(3)) // still its slot: stays dark
	if len(f.revived) != 0 {
		t.Fatal("revived during its own leader view")
	}
	s.Observe(enter(4)) // slot passed: revived
	if len(f.revived) != 1 || f.revived[0] != 3 {
		t.Fatalf("revived = %v, want [3]", f.revived)
	}
}

// TestStrategyHookAllocs pins the observation-hook and Link paths at
// zero allocations: they sit inside the simulated send hot path, which
// is pinned at 0 allocs/send.
func TestStrategyHookAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := &msg.ViewMsg{V: 3}
	for _, spec := range AttackNames() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			f := newFakeEnv()
			s, err := AttackSpec{Name: spec}.Strategy()
			if err != nil {
				t.Fatal(err)
			}
			s.Init(f.env)
			obs := NetObserver(s)
			var sink network.Verdict
			avg := allocgate.PerRun(t, 1000, func() {
				obs.OnSend(0, 1, m, 0, true)
				obs.OnDeliver(0, 1, m, 0)
				sink = s.Link(0, 1, m, 0, rng)
			})
			_ = sink
			if avg != 0 {
				t.Errorf("hook path allocates %.2f per event, want 0", avg)
			}
		})
	}
}

// TestPMObserverForwarding checks the pacemaker-side hook adapter.
func TestPMObserverForwarding(t *testing.T) {
	var got []Observation
	rec := recorderStrategy{got: &got}
	o := PMObserver(rec, 2)
	o.OnEnterView(5, 10)
	o.OnEnterEpoch(1, 11)
	o.OnHeavySync(6, 12)
	if len(got) != 3 {
		t.Fatalf("observations = %d", len(got))
	}
	if got[0].Event != HookEnterView || got[0].Node != 2 || got[0].View != 5 {
		t.Fatalf("enter-view obs = %+v", got[0])
	}
	if got[1].Event != HookEnterEpoch || got[1].Epoch != 1 {
		t.Fatalf("enter-epoch obs = %+v", got[1])
	}
	if got[2].Event != HookHeavySync || got[2].View != 6 || got[2].At != 12 {
		t.Fatalf("heavy-sync obs = %+v", got[2])
	}
}

// recorderStrategy records observations; Link passes through.
type recorderStrategy struct{ got *[]Observation }

func (recorderStrategy) Name() string            { return "recorder" }
func (recorderStrategy) Init(*Env)               {}
func (r recorderStrategy) Observe(o Observation) { *r.got = append(*r.got, o) }
func (recorderStrategy) Link(_, _ types.NodeID, _ msg.Message, _ types.Time, _ *rand.Rand) network.Verdict {
	return network.Verdict{}
}
