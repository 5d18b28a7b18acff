package quorum

import (
	"math/rand"
	"slices"
	"testing"

	"lumiere/internal/allocgate"
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
		if avg := allocgate.PerRun(t, 100, func() {
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

// held counts the non-zero signatures anywhere in a set's storage, up to
// its capacity: what it would still pin for the garbage collector.
func held(vs *VoteSet) int {
	n := 0
	for _, sig := range vs.Sigs()[:cap(vs.Sigs())] {
		if sig.Signer != 0 || sig.Bytes != nil {
			n++
		}
	}
	return n
}

// TestFinishedSetsKeepNoSignature: a set released as its window prunes
// its view, and a set Released by its owner, keeps its capacity but no
// signature anywhere in it — one stored signature would pin its whole
// SimSuite signature block — and the window's vacated slot no longer
// points at it.
func TestFinishedSetsKeepNoSignature(t *testing.T) {
	const n, keep = 64, 43
	fill := func(vs *VoteSet) {
		for i := 0; i < n; i++ {
			vs.Add(crypto.Signature{Signer: types.NodeID(i), Bytes: []byte{byte(i)}})
		}
	}
	var w Window[types.View, *VoteSet]
	vs := new(VoteSet)
	vs.ResetKeep(n, keep)
	fill(vs)
	w.Put(7, vs)
	if held(vs) != keep {
		t.Fatalf("filled set holds %d signatures, want %d", held(vs), keep)
	}
	w.ForgetBelow(8, (*VoteSet).Release)
	if w.Len() != 0 || len(vs.Sigs()) != 0 || cap(vs.Sigs()) != keep || held(vs) != 0 {
		t.Errorf("window keeps %d, pruned set stores %d of capacity %d and holds %d; want 0, 0, %d, 0",
			w.Len(), len(vs.Sigs()), cap(vs.Sigs()), held(vs), keep)
	}
	if slot := w.entries[:1][0]; slot.val != nil || slot.key != 0 {
		t.Errorf("vacated slot still holds view %d, set %p", slot.key, slot.val)
	}

	vs.ResetKeep(n, keep)
	fill(vs)
	vs.Release()
	if len(vs.Sigs()) != 0 || held(vs) != 0 || vs.Count() != n || !vs.Has(n-1) {
		t.Errorf("released set: stores %d, holds %d, counts %d; want 0, 0, %d with its signers kept",
			len(vs.Sigs()), held(vs), vs.Count(), n)
	}
	vs.ResetKeep(n, keep/2) // a smaller keep leaves nothing stale past it
	fill(vs)
	if held(vs) != keep/2 {
		t.Errorf("re-armed set holds %d signatures, want %d", held(vs), keep/2)
	}
}

// TestWindowMatchesMap drives the same randomized Put/At/ForgetBelow
// trace through a Window and a plain map with delete-below pruning and
// requires identical answers, every pruned value handed to drop once in
// key order, and Each to list the map's entries in key order.
func TestWindowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var w Window[types.View, int]
	m := map[types.View]int{}
	var bound types.View
	for i := 0; i < 20000; i++ {
		switch rng.Intn(5) {
		case 0: // put near the live window, mostly at the top
			v := bound + types.View(rng.Intn(300))
			w.Put(v, i)
			m[v] = i
		case 1, 2: // look up anywhere, including pruned keys
			v := types.View(rng.Intn(int(bound) + 400))
			got, ok := w.At(v)
			if want, wok := m[v]; got != want || ok != wok {
				t.Fatalf("step %d: At(%d) = %d, %v; map %d, %v (bound %d)", i, v, got, ok, want, wok, bound)
			}
		case 3: // advance the prune bound
			bound += types.View(rng.Intn(50))
			var want []int
			for _, v := range sortedKeys(m) {
				if v < bound {
					want = append(want, m[v])
					delete(m, v)
				}
			}
			var dropped []int
			w.ForgetBelow(bound, func(x int) { dropped = append(dropped, x) })
			if !slices.Equal(dropped, want) {
				t.Fatalf("step %d: ForgetBelow(%d) dropped %v, want %v", i, bound, dropped, want)
			}
		case 4: // list every entry
			var keys []types.View
			w.Each(func(v types.View, x int) {
				if m[v] != x {
					t.Fatalf("step %d: Each gave %d for %d, map %d", i, x, v, m[v])
				}
				keys = append(keys, v)
			})
			if want := sortedKeys(m); !slices.Equal(keys, want) || w.Len() != len(m) {
				t.Fatalf("step %d: Each listed %v (Len %d), want %v", i, keys, w.Len(), want)
			}
		}
	}
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys(m map[types.View]int) []types.View {
	keys := make([]types.View, 0, len(m))
	for v := range m {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	return keys
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
		if avg := allocgate.PerRun(t, 1000, func() {
			vs.ResetKeep(n, keep)
			for _, s := range sigs {
				vs.Add(s)
			}
			_ = vs.Sigs()
		}); avg != 0 {
			t.Errorf("VoteSet view cycle keeping %d allocates %.1f/op, want 0", keep, avg)
		}
	}

	// A window of pooled vote sets, as baseline.Certs keeps.
	var sets Window[types.View, *VoteSet]
	free := []*VoteSet{new(VoteSet), new(VoteSet)} // the live view's and the one just pruned
	recycle := func(vs *VoteSet) {
		vs.Release()
		free = append(free, vs)
	}
	view := types.View(0)
	if avg := allocgate.PerRun(t, 1000, func() {
		view += 2
		s := free[len(free)-1]
		free = free[:len(free)-1]
		s.ResetKeep(n, n/3+1)
		sets.Put(view, s)
		for _, sig := range sigs {
			s.Add(sig)
		}
		sets.ForgetBelow(view, recycle)
	}); avg != 0 {
		t.Errorf("vote-set window view cycle allocates %.1f/op, want 0", avg)
	}

	var f Flags
	f.Reset()
	v := types.View(64) // pre-grow the window past the warmup edge
	f.Set(v)
	if avg := allocgate.PerRun(t, 1000, func() {
		v += 2
		if !f.Has(v) {
			f.Set(v)
		}
		f.ForgetBelow(v - 2)
	}); avg != 0 {
		t.Errorf("Flags view cycle allocates %.1f/op, want 0", avg)
	}
}
