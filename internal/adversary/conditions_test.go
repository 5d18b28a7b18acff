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

var condMsg = &msg.ViewMsg{V: 1}

func base(d time.Duration) network.LinkPolicy {
	return network.DelayLink{P: network.Fixed{D: d}}
}

func TestPartitionDropsAcrossGroupsUntilHeal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	heal := types.Time(0).Add(time.Second)
	// Nodes 0..3: {0,1} is an island; 2 and 3 are unlisted and share
	// the implicit group.
	p := NewPartition(base(time.Millisecond), 4, heal, []types.NodeID{0, 1})
	cases := []struct {
		name     string
		from, to types.NodeID
		at       types.Time
		drop     bool
	}{
		{"cross-group pre-heal", 0, 2, 0, true},
		{"cross-group reverse pre-heal", 3, 1, 0, true},
		{"intra-island pre-heal", 0, 1, 0, false},
		{"implicit-group pre-heal", 2, 3, 0, false},
		{"cross-group at heal", 0, 2, heal, false},
		{"cross-group post-heal", 0, 2, heal.Add(time.Second), false},
	}
	for _, c := range cases {
		if v := p.Link(c.from, c.to, condMsg, c.at, rng); v.Drop != c.drop {
			t.Errorf("%s: drop = %v, want %v", c.name, v.Drop, c.drop)
		}
	}
}

func TestLossyProbabilityAndUntil(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	always := Lossy{Base: base(time.Millisecond), P: 1}
	if v := always.Link(0, 1, condMsg, 0, rng); !v.Drop {
		t.Fatal("P=1 did not drop")
	}
	never := Lossy{Base: base(time.Millisecond), P: 0}
	if v := never.Link(0, 1, condMsg, 0, rng); v.Drop {
		t.Fatal("P=0 dropped")
	}
	until := Lossy{Base: base(time.Millisecond), P: 1, Until: types.Time(0).Add(time.Second)}
	if v := until.Link(0, 1, condMsg, types.Time(0).Add(time.Second), rng); v.Drop {
		t.Fatal("dropped at Until")
	}
	if v := until.Link(0, 1, condMsg, 0, rng); !v.Drop {
		t.Fatal("did not drop before Until")
	}
	half := Lossy{Base: base(time.Millisecond), P: 0.5}
	drops := 0
	for i := 0; i < 1000; i++ {
		if half.Link(0, 1, condMsg, 0, rng).Drop {
			drops++
		}
	}
	if drops < 400 || drops > 600 {
		t.Fatalf("P=0.5 dropped %d/1000", drops)
	}
}

func TestDuplicatingVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Duplicating{Base: base(time.Millisecond), P: 1}
	v := d.Link(0, 1, condMsg, 0, rng)
	if !v.Dup || v.DupDelay != v.Delay {
		t.Fatalf("P=1 verdict %+v: want Dup with DupDelay = Delay", v)
	}
	jit := Duplicating{Base: base(time.Millisecond), P: 1, Jitter: 10 * time.Millisecond}
	for i := 0; i < 100; i++ {
		v := jit.Link(0, 1, condMsg, 0, rng)
		if v.DupDelay < v.Delay || v.DupDelay > v.Delay+jit.Jitter {
			t.Fatalf("jittered DupDelay %v outside [%v, %v]", v.DupDelay, v.Delay, v.Delay+jit.Jitter)
		}
	}
	// A dropped message is never duplicated.
	dl := Duplicating{Base: Lossy{Base: base(time.Millisecond), P: 1}, P: 1}
	if v := dl.Link(0, 1, condMsg, 0, rng); !v.Drop || v.Dup {
		t.Fatalf("dropped verdict %+v: want Drop without Dup", v)
	}
}

func TestReorderingJittersWithinWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Reordering{Base: base(5 * time.Millisecond), Jitter: 20 * time.Millisecond}
	varied := false
	for i := 0; i < 200; i++ {
		v := r.Link(0, 1, condMsg, 0, rng)
		if v.Delay < 5*time.Millisecond || v.Delay > 25*time.Millisecond {
			t.Fatalf("delay %v outside [5ms, 25ms]", v.Delay)
		}
		if v.Delay != 5*time.Millisecond {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never varied the delay")
	}
}

// TestConditionAllocs pins the condition primitives' Link paths at zero
// allocations: they sit inside the simulated send hot path, which PR 2
// pinned at 0 allocs/send.
func TestConditionAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	part := NewPartition(base(time.Millisecond), 4, types.Time(0).Add(time.Second), []types.NodeID{0, 1})
	chain := Lossy{
		Base: Duplicating{
			Base: Reordering{
				Base:   part,
				Jitter: time.Millisecond,
			},
			P: 0.3, Jitter: time.Millisecond,
		},
		P: 0.2,
	}
	var sink network.Verdict
	avg := allocgate.PerRun(t, 1000, func() {
		sink = chain.Link(0, 2, condMsg, 0, rng)
		sink = chain.Link(0, 1, condMsg, 0, rng)
	})
	_ = sink
	if avg != 0 {
		t.Fatalf("condition chain allocates %.2f per Link, want 0", avg)
	}
}

func TestPeriodicChurnSchedule(t *testing.T) {
	c := PeriodicChurn(2, time.Second, 500*time.Millisecond, 2*time.Second, 3)
	if c.Node != 2 || c.Behavior != BehaviorChurn || len(c.Downs) != 3 {
		t.Fatalf("corruption %+v", c)
	}
	for i, d := range c.Downs {
		wantFrom := time.Second + time.Duration(i)*2*time.Second
		if d.From != wantFrom || d.To != wantFrom+500*time.Millisecond {
			t.Fatalf("down %d = %+v", i, d)
		}
	}
	if BehaviorChurn.String() != "churn" {
		t.Fatalf("String() = %q", BehaviorChurn.String())
	}
}
