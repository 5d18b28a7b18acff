package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lumiere/internal/types"
)

func TestRoundRobinPairs(t *testing.T) {
	s := RoundRobin{N: 4}
	want := []types.NodeID{0, 0, 1, 1, 2, 2, 3, 3, 0, 0}
	for v, w := range want {
		if got := s.Leader(types.View(v)); got != w {
			t.Fatalf("lead(%d) = %v, want %v", v, got, w)
		}
	}
	if s.Leader(types.NoView) != types.NoNode {
		t.Fatal("lead(-1)")
	}
}

func TestPermScheduleIsPermutationPerBlock(t *testing.T) {
	n := 7
	s := NewPermSchedule(n, 99)
	for block := 0; block < 12; block++ {
		seen := make(map[types.NodeID]int)
		for pos := 0; pos < n; pos++ {
			v := types.View(block*2*n + 2*pos)
			l := s.Leader(v)
			if l < 0 || int(l) >= n {
				t.Fatalf("leader out of range: %v", l)
			}
			seen[l]++
			// Pair property: v and v+1 share a leader.
			if s.Leader(v+1) != l {
				t.Fatalf("pair broken at view %d", v)
			}
		}
		if len(seen) != n {
			t.Fatalf("block %d is not a permutation: %v", block, seen)
		}
	}
}

func TestPermScheduleBoundaryContinuity(t *testing.T) {
	// The §4 requirement (strengthened per DESIGN.md): the last leader
	// of every 2n-block equals the first leader of the next, hence the
	// last leader of every epoch equals the first of the next.
	n := 9
	s := NewPermSchedule(n, 5)
	for block := 0; block < 40; block++ {
		last := s.Leader(types.View((block+1)*2*n - 1))
		first := s.Leader(types.View((block + 1) * 2 * n))
		if last != first {
			t.Fatalf("boundary %d: last=%v first=%v", block, last, first)
		}
	}
}

func TestPermScheduleOddBlocksAreReversals(t *testing.T) {
	n := 6
	s := NewPermSchedule(n, 11)
	for k := 0; k+1 < 10; k += 2 {
		for pos := 0; pos < n; pos++ {
			even := s.Leader(types.View(k*2*n + 2*pos))
			odd := s.Leader(types.View((k+1)*2*n + 2*(n-1-pos)))
			if even != odd {
				t.Fatalf("block %d not reversed at pos %d: %v vs %v", k+1, pos, even, odd)
			}
		}
	}
}

func TestPermScheduleDeterministicBySeed(t *testing.T) {
	a := NewPermSchedule(8, 42)
	b := NewPermSchedule(8, 42)
	for v := types.View(0); v < 500; v++ {
		if a.Leader(v) != b.Leader(v) {
			t.Fatalf("seeded schedules diverge at view %d", v)
		}
	}
	c := NewPermSchedule(8, 43)
	same := true
	for v := types.View(0); v < 500; v++ {
		if a.Leader(v) != c.Leader(v) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPermScheduleFairnessPerEpoch(t *testing.T) {
	// Each processor leads exactly 2·BlocksPerEpoch views per epoch.
	n, blocks := 5, 5
	s := NewPermSchedule(n, 3)
	epochLen := 2 * n * blocks
	counts := make(map[types.NodeID]int)
	for v := 0; v < epochLen; v++ {
		counts[s.Leader(types.View(v))]++
	}
	for id, c := range counts {
		if c != 2*blocks {
			t.Fatalf("node %v leads %d views per epoch, want %d", id, c, 2*blocks)
		}
	}
}

func TestPermScheduleRandomAccessQuick(t *testing.T) {
	// Property: out-of-order access returns the same answers as
	// sequential access (lazy generation is order-independent).
	seq := NewPermSchedule(6, 21)
	for v := types.View(0); v < 600; v++ {
		seq.Leader(v)
	}
	rnd := NewPermSchedule(6, 21)
	f := func(raw uint16) bool {
		v := types.View(raw) % 600
		return rnd.Leader(v) == seq.Leader(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSharedPermScheduleMatchesPrivate: one schedule serving n callers
// that ask for views of four blocks in a shuffled, interleaved order
// answers every caller exactly as a private schedule from the same seed
// queried in view order. Blocks are generated lazily in block order from
// one rng, so who asks first cannot change a leader.
func TestSharedPermScheduleMatchesPrivate(t *testing.T) {
	for _, n := range []int{4, 61} {
		views := types.View(4 * 2 * n)
		want := make([][]types.NodeID, n)
		for i := range want {
			private := NewPermSchedule(n, 17)
			for v := types.View(0); v < views; v++ {
				want[i] = append(want[i], private.Leader(v))
			}
		}
		type query struct {
			caller int
			view   types.View
		}
		var qs []query
		for i := 0; i < n; i++ {
			for v := types.View(0); v < views; v++ {
				qs = append(qs, query{i, v})
			}
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
		shared := NewPermSchedule(n, 17)
		for _, q := range qs {
			if got := shared.Leader(q.view); got != want[q.caller][q.view] {
				t.Fatalf("n=%d: caller %d view %d: shared leader %v, private %v",
					n, q.caller, q.view, got, want[q.caller][q.view])
			}
		}
	}
}
