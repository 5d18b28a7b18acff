// Package quorum provides dense, allocation-recycling containers for the
// per-view bookkeeping every engine keeps: which processors contributed a
// vote toward a certificate (VoteSet: an n-bit set that counts distinct
// signers, plus the signatures a seal needs in arrival order) and which
// views have already been acted on (Flags: a windowed bitset over views).
// They replace the map[types.NodeID]crypto.Signature vote maps and
// map[types.View]bool seen/done maps of the original engines — at n=4096
// a map per view costs rehashing and pointer-chasing per vote, while a
// VoteSet is one 64-word bit array plus a signature slice sized once to
// the threshold its certificate is sealed at (none for a set that only
// counts), both recycled across views through a free pool within one
// execution (a cell's engines, and so their pools, are built with the
// cell and dropped with it). A recycled or released set keeps its
// capacity but no signature.
//
// Semantics are those of the maps they replace: VoteSet.Add dedups by
// signer, Flags.Has on a pruned view reads false (a deleted map entry),
// and certificate bytes are unchanged because crypto.Aggregate sorts
// component signatures by signer internally — arrival order in, same
// aggregate out.
package quorum

import (
	"fmt"
	"slices"

	"lumiere/internal/crypto"
	"lumiere/internal/types"
)

// ---------------------------------------------------------------------------
// VoteSet: one certificate's votes
// ---------------------------------------------------------------------------

// VoteSet accumulates one certificate's votes: an n-bit signer set that
// dedups and counts every distinct signer, and the signatures of the
// first keep of them in arrival order, in one slice allocated once at
// exactly keep. Engines keep what their seal aggregates — the threshold —
// so a set fed by all n processors stores a quorum, and a set that is
// never sealed keeps none and only counts.
type VoteSet struct {
	words []uint64
	count int
	keep  int
	sigs  []crypto.Signature
}

// Reset clears the set for n processors, keeping every signature:
// ResetKeep(n, n).
func (v *VoteSet) Reset(n int) { v.ResetKeep(n, n) }

// ResetKeep clears the set for n processors; Add will store the first
// keep signatures and count the rest.
func (v *VoteSet) ResetKeep(n, keep int) {
	w := (n + 63) / 64
	if cap(v.words) < w {
		v.words = make([]uint64, w)
	} else {
		v.words = v.words[:w]
		clear(v.words)
	}
	if cap(v.sigs) < keep {
		v.sigs = make([]crypto.Signature, 0, keep)
	}
	v.Release()
	v.count, v.keep = 0, keep
}

// Release zeroes and drops the stored signatures, keeping their capacity:
// a finished set must not pin what it no longer needs, since one stored
// signature keeps its whole SimSuite signature block (1024 signatures)
// alive. Counts and signers stay as they are; Sigs is empty afterwards.
func (v *VoteSet) Release() {
	clear(v.sigs)
	v.sigs = v.sigs[:0]
}

// Add records a vote, deduplicating by signer, and stores its signature
// while fewer than keep are stored. It reports whether the vote was new.
func (v *VoteSet) Add(sig crypto.Signature) bool {
	i := int(sig.Signer)
	w, b := i>>6, uint64(1)<<uint(i&63)
	if v.words[w]&b != 0 {
		return false
	}
	v.words[w] |= b
	v.count++
	if len(v.sigs) < v.keep {
		v.sigs = append(v.sigs, sig)
	}
	return true
}

// Has reports whether a signer has already voted.
func (v *VoteSet) Has(id types.NodeID) bool {
	i := int(id)
	return v.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of distinct votes collected, stored or not.
func (v *VoteSet) Count() int { return v.count }

// Sigs returns the stored signatures — the first keep votes — in arrival
// order. The slice is owned by the set: valid until the next Reset, not
// to be mutated.
func (v *VoteSet) Sigs() []crypto.Signature { return v.sigs }

// ---------------------------------------------------------------------------
// VoteSets: per-view pool of VoteSets
// ---------------------------------------------------------------------------

// VoteSets is an engine's per-view vote storage: VoteSets materialize
// lazily on first vote (only collectors pay the n-bit array) and return
// to a free pool when their view is pruned, so a long execution touches
// a bounded working set no matter how many views it advances through. An
// engine materializes all its sets with the same keep, so a recycled set
// already has the capacity it needs.
type VoteSets struct {
	n    int
	live map[types.View]*VoteSet
	free []*VoteSet
}

// Reset recycles every live set into the pool and re-arms the container
// for n processors.
func (s *VoteSets) Reset(n int) {
	s.n = n
	if s.live == nil {
		s.live = make(map[types.View]*VoteSet)
	}
	for v, vs := range s.live {
		s.recycle(vs)
		delete(s.live, v)
	}
}

// recycle releases a set's signatures and returns it to the pool.
func (s *VoteSets) recycle(vs *VoteSet) {
	vs.Release()
	s.free = append(s.free, vs)
}

// Get returns the view's vote set, materializing an empty one that keeps
// keep signatures on first use.
func (s *VoteSets) Get(v types.View, keep int) *VoteSet {
	if vs, ok := s.live[v]; ok {
		return vs
	}
	var vs *VoteSet
	if k := len(s.free); k > 0 {
		vs = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		vs = new(VoteSet)
	}
	vs.ResetKeep(s.n, keep)
	s.live[v] = vs
	return vs
}

// Peek returns the view's vote set or nil, without materializing one.
func (s *VoteSets) Peek(v types.View) *VoteSet { return s.live[v] }

// Drop recycles one view's set, if present.
func (s *VoteSets) Drop(v types.View) {
	if vs, ok := s.live[v]; ok {
		s.recycle(vs)
		delete(s.live, v)
	}
}

// DropBelow recycles every set for a view strictly below bound — the
// pruning sweep engines run as their view advances.
func (s *VoteSets) DropBelow(bound types.View) {
	for v, vs := range s.live {
		if v < bound {
			s.recycle(vs)
			delete(s.live, v)
		}
	}
}

// Live returns the number of materialized views (diagnostics/tests).
func (s *VoteSets) Live() int { return len(s.live) }

// ---------------------------------------------------------------------------
// Flags: windowed view bitset
// ---------------------------------------------------------------------------

// Flags is a set of views, stored as a bitset over a sliding window —
// the replacement for an engine's map[types.View]bool seen/done/sent
// maps. ForgetBelow plays the role of the pruning delete-loop: views
// below the bound read false, and the window storage compacts so memory
// tracks the live span (current view back to the prune bound), not the
// whole execution.
//
// Setting a view below the forget bound panics: the engines' guard
// clauses (stale-view early returns before every Set) make that
// unreachable, and a panic turns any missed guard into a loud failure
// instead of a silently lost write.
type Flags struct {
	base types.View // view of bit 0 of bits
	lo   types.View // forget bound; views below it read false
	bits []uint64
}

// Reset empties the set and rewinds the window to view 0.
func (f *Flags) Reset() {
	f.base, f.lo = 0, 0
	f.bits = f.bits[:0]
}

// Has reports whether v is in the set. Views below the forget bound or
// beyond the window read false.
func (f *Flags) Has(v types.View) bool {
	if v < f.base {
		return false
	}
	i := int(v - f.base)
	w := i >> 6
	if w >= len(f.bits) {
		return false
	}
	return f.bits[w]&(1<<uint(i&63)) != 0
}

// Set adds v to the set, growing the window as needed.
func (f *Flags) Set(v types.View) {
	if v < f.lo {
		panic(fmt.Sprintf("quorum: Flags.Set(%d) below forget bound %d", v, f.lo))
	}
	if len(f.bits) == 0 {
		// Re-anchor an empty window at the bound so a fully-compacted
		// set doesn't span back to an ancient base.
		f.base = f.lo
	}
	i := int(v - f.base)
	if w := i >> 6; w >= len(f.bits) {
		old := len(f.bits)
		f.bits = slices.Grow(f.bits, w+1-old)[:w+1]
		clear(f.bits[old:]) // truncation leaves stale words in capacity
	}
	f.bits[i>>6] |= 1 << uint(i&63)
}

// Bound returns the forget bound: the lowest view Set still accepts.
// Engines use it as the staleness guard before re-admitting state for a
// view — anything below the bound was pruned and stays forgotten.
func (f *Flags) Bound() types.View { return f.lo }

// ForgetBelow removes every view strictly below bound and compacts the
// window. Matches the engines' pruning delete-loops over view maps.
func (f *Flags) ForgetBelow(bound types.View) {
	if bound <= f.lo {
		return
	}
	hi := f.base + types.View(64*len(f.bits))
	clearTo := bound
	if clearTo > hi {
		clearTo = hi
	}
	for v := f.lo; v < clearTo; v++ {
		i := int(v - f.base)
		f.bits[i>>6] &^= 1 << uint(i&63)
	}
	f.lo = bound
	if k := int(f.lo-f.base) >> 6; k > 0 {
		if k >= len(f.bits) {
			f.bits = f.bits[:0]
			f.base = f.lo
		} else {
			copy(f.bits, f.bits[k:])
			f.bits = f.bits[:len(f.bits)-k]
			f.base += types.View(64 * k)
		}
	}
}
