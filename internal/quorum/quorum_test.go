package quorum

import (
	"math/rand"
	"testing"

	"lumiere/internal/crypto"
	"lumiere/internal/types"
)

// TestVoteSetDedup: whatever a set stores, it dedups and counts every
// distinct signer, and stores the first keep of them in arrival order.
func TestVoteSetDedup(t *testing.T) {
	for _, keep := range []int{100, 2, 1, 0} {
		var vs VoteSet
		vs.ResetKeep(100, keep)
		if !vs.Add(crypto.Signature{Signer: 7}) {
			t.Fatalf("keep %d: first add rejected", keep)
		}
		if vs.Add(crypto.Signature{Signer: 7}) {
			t.Fatalf("keep %d: duplicate signer accepted", keep)
		}
		if !vs.Add(crypto.Signature{Signer: 99}) {
			t.Fatalf("keep %d: distinct signer rejected", keep)
		}
		if vs.Count() != 2 || !vs.Has(7) || !vs.Has(99) || vs.Has(8) {
			t.Fatalf("keep %d: state: count=%d", keep, vs.Count())
		}
		sigs, want := vs.Sigs(), []types.NodeID{7, 99}[:min(keep, 2)]
		if len(sigs) != len(want) {
			t.Fatalf("keep %d: stored %d signatures, want %d", keep, len(sigs), len(want))
		}
		for i, id := range want {
			if sigs[i].Signer != id {
				t.Fatalf("keep %d: arrival order lost: %+v", keep, sigs)
			}
		}
		vs.ResetKeep(100, keep)
		if vs.Count() != 0 || vs.Has(7) || len(vs.Sigs()) != 0 {
			t.Fatalf("keep %d: Reset did not clear", keep)
		}
	}
}

// TestVoteSetKeepsFirstArrivals: a set keeping q of n signatures, fed all
// n (each twice), counts n and holds the first q distinct arrivals in one
// slice allocated at capacity q and never grown; a count-only set stores
// nothing and allocates no signature storage.
func TestVoteSetKeepsFirstArrivals(t *testing.T) {
	const n, q = 100, 67
	order := rand.New(rand.NewSource(1)).Perm(n)
	fill := func(vs *VoteSet) {
		for _, i := range order {
			vs.Add(crypto.Signature{Signer: types.NodeID(i)})
			vs.Add(crypto.Signature{Signer: types.NodeID(i)})
		}
	}
	var vs VoteSet
	vs.ResetKeep(n, q)
	fill(&vs)
	sigs := vs.Sigs()
	if vs.Count() != n || len(sigs) != q || cap(sigs) != q {
		t.Fatalf("count %d, stored %d, capacity %d; want %d, %d, %d", vs.Count(), len(sigs), cap(sigs), n, q, q)
	}
	for i, s := range sigs {
		if int(s.Signer) != order[i] {
			t.Fatalf("stored signature %d is signer %v, want arrival %d", i, s.Signer, order[i])
		}
	}
	vs.ResetKeep(n, 0)
	fill(&vs)
	if vs.Count() != n || len(vs.Sigs()) != 0 {
		t.Fatalf("count-only set: count %d, stored %d; want %d, 0", vs.Count(), len(vs.Sigs()), n)
	}

	if testing.Short() {
		t.Skip("allocation counts are measured in full mode")
	}
	// A fresh set allocates itself and its bitset, plus one signature
	// slice when it keeps any.
	for _, c := range []struct {
		keep int
		want float64
	}{{0, 2}, {q, 3}} {
		if avg := testing.AllocsPerRun(100, func() {
			vs := new(VoteSet)
			vs.ResetKeep(n, c.keep)
			fill(vs)
			escapedSet = vs
		}); avg != c.want {
			t.Errorf("fresh set keeping %d of %d allocates %.1f/op, want %.0f", c.keep, n, avg, c.want)
		}
	}
}

// escapedSet keeps TestVoteSetKeepsFirstArrivals' sets on the heap, so
// the allocation count does not depend on escape analysis.
var escapedSet *VoteSet

func TestVoteSetResize(t *testing.T) {
	var vs VoteSet
	vs.Reset(4)
	vs.Add(crypto.Signature{Signer: 3})
	vs.Reset(4096)
	if vs.Has(3) {
		t.Fatal("stale bit after grow")
	}
	vs.Add(crypto.Signature{Signer: 4095})
	if !vs.Has(4095) || vs.Count() != 1 {
		t.Fatal("high signer lost")
	}
	vs.Reset(4) // shrink reuses capacity
	if vs.Count() != 0 {
		t.Fatal("shrink did not clear")
	}
}

func TestVoteSetsPoolRecycling(t *testing.T) {
	var s VoteSets
	s.Reset(64)
	s.Get(10, 1).Add(crypto.Signature{Signer: 1})
	s.Get(11, 1).Add(crypto.Signature{Signer: 2})
	s.Get(12, 1)
	if s.Live() != 3 {
		t.Fatalf("live = %d", s.Live())
	}
	if s.Peek(13) != nil {
		t.Fatal("Peek materialized")
	}
	s.DropBelow(12)
	if s.Live() != 1 || s.Peek(10) != nil || s.Peek(12) == nil {
		t.Fatal("DropBelow wrong")
	}
	// Recycled sets come back empty.
	if got := s.Get(20, 1); got.Count() != 0 || len(got.Sigs()) != 0 {
		t.Fatalf("recycled set not cleared: %d votes", got.Count())
	}
	s.Reset(64)
	if s.Live() != 0 {
		t.Fatal("Reset left live sets")
	}
	if got := s.Get(10, 1); got.Count() != 0 || got.Has(1) {
		t.Fatal("post-Reset set dirty")
	}
}

// TestFlagsMatchesMap drives the same randomized Set/Has/ForgetBelow
// trace through Flags and a plain map with delete-below pruning and
// requires identical answers.
func TestFlagsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var f Flags
	f.Reset()
	m := map[types.View]bool{}
	var bound types.View
	for i := 0; i < 20000; i++ {
		switch rng.Intn(4) {
		case 0: // set near the live window
			v := bound + types.View(rng.Intn(300))
			f.Set(v)
			m[v] = true
		case 1, 2: // query anywhere, including pruned views
			v := types.View(rng.Intn(int(bound) + 400))
			if f.Has(v) != m[v] {
				t.Fatalf("step %d: Has(%d) = %v, map %v (bound %d)", i, v, f.Has(v), m[v], bound)
			}
		case 3: // advance the prune bound
			bound += types.View(rng.Intn(50))
			f.ForgetBelow(bound)
			for v := range m {
				if v < bound {
					delete(m, v)
				}
			}
		}
	}
}

func TestFlagsSetBelowBoundPanics(t *testing.T) {
	var f Flags
	f.Reset()
	f.Set(5)
	f.ForgetBelow(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Set below forget bound did not panic")
		}
	}()
	f.Set(9)
}

func TestFlagsLargeJumpCompacts(t *testing.T) {
	var f Flags
	f.Reset()
	f.Set(0)
	f.ForgetBelow(1 << 20)
	f.Set(1 << 20)
	if got := len(f.bits); got > 2 {
		t.Fatalf("window did not compact: %d words", got)
	}
	if !f.Has(1<<20) || f.Has(0) {
		t.Fatal("wrong contents after jump")
	}
}

// TestSteadyStateAllocFree: the per-view operations that replaced the
// engines' map allocations — viewcore.LeaderStart's vote-map make, the
// pacemakers' per-view vote maps and seen/done map inserts — are
// allocation-free once the containers have reached steady-state
// capacity, however many signatures a set keeps and however far past
// its threshold it is fed.
func TestSteadyStateAllocFree(t *testing.T) {
	const n = 61
	sigs := make([]crypto.Signature, n)
	for i := range sigs {
		sigs[i] = crypto.Signature{Signer: types.NodeID(i)}
	}

	for _, keep := range []int{n, 2*n/3 + 1, 0} {
		var vs VoteSet
		vs.ResetKeep(n, keep)
		if avg := testing.AllocsPerRun(1000, func() {
			vs.ResetKeep(n, keep)
			for _, s := range sigs {
				vs.Add(s)
			}
			_ = vs.Sigs()
		}); avg != 0 {
			t.Errorf("VoteSet view cycle keeping %d allocates %.1f/op, want 0", keep, avg)
		}
	}

	var sets VoteSets
	sets.Reset(n)
	view := types.View(0)
	sets.Get(view, n/3+1) // materialize the pooled set once
	if avg := testing.AllocsPerRun(1000, func() {
		view += 2
		s := sets.Get(view, n/3+1)
		for _, sig := range sigs {
			s.Add(sig)
		}
		sets.DropBelow(view)
	}); avg != 0 {
		t.Errorf("VoteSets view cycle allocates %.1f/op, want 0", avg)
	}

	var f Flags
	f.Reset()
	v := types.View(64) // pre-grow the window past the warmup edge
	f.Set(v)
	if avg := testing.AllocsPerRun(1000, func() {
		v += 2
		if !f.Has(v) {
			f.Set(v)
		}
		f.ForgetBelow(v - 2)
	}); avg != 0 {
		t.Errorf("Flags view cycle allocates %.1f/op, want 0", avg)
	}
}
