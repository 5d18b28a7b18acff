// Package quorum provides the dense containers behind every engine's
// per-view bookkeeping, kept one way: a set of views (those acted on) is
// a Flags, a bitset over a sliding window; a value per view or epoch is
// a Window, its entries sorted by key in one slice; and a certificate's
// votes are a VoteSet, an n-bit set that counts distinct signers plus
// the signatures its seal needs, in arrival order, in a slice sized once
// to that threshold. Vote sets are recycled across views through their
// owner's pool; a recycled or released set keeps capacity, no signature.
//
// A Window is a sorted slice, not a map, because an engine reads its
// current views' values and drops every entry below a bound as its view
// advances: on a sorted slice that is one cut at the front, not a scan
// of every entry, and iteration runs in key order, so no result depends
// on map order. Engines insert at or near the top, where an insert is an
// append; a key below the top shifts the entries above it, O(live).
//
// Semantics are those of the maps they replace: VoteSet.Add dedups by
// signer, a pruned view is absent from a Flags or a Window, and
// certificate bytes are unchanged because crypto.Aggregate sorts
// component signatures by signer — arrival order in, same aggregate out.
package quorum

import (
	"cmp"
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
// Flags: windowed view bitset
// ---------------------------------------------------------------------------

// Flags is a set of views — an engine's seen/done/sent views — stored
// as a bitset over a sliding window. ForgetBelow plays the role of the
// pruning delete-loop: views below the bound read false, and the window
// storage compacts so memory tracks the live span (current view back to
// the prune bound), not the whole execution.
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

// ---------------------------------------------------------------------------
// Window: per-view values in key order
// ---------------------------------------------------------------------------

// Window maps views or epochs to values, its entries sorted by key in
// one slice. The zero Window is empty and ready to use.
type Window[K ~int64, V any] struct {
	entries []windowEntry[K, V]
}

type windowEntry[K ~int64, V any] struct {
	key K
	val V
}

// windowRoom is a window's first capacity. A steady engine keeps about
// this many keys live (views v−2 to v and one early, or epochs e−1 and
// e), so its window allocates once, on its first Put, and rarely grows.
const windowRoom = 4

// Len returns the number of entries.
func (w *Window[K, V]) Len() int { return len(w.entries) }

// search returns where k's entry is or would be inserted, and whether it
// is there.
func (w *Window[K, V]) search(k K) (int, bool) {
	return slices.BinarySearchFunc(w.entries, k, func(e windowEntry[K, V], k K) int { return cmp.Compare(e.key, k) })
}

// At returns k's value and whether k has one.
func (w *Window[K, V]) At(k K) (v V, ok bool) {
	if i, ok := w.search(k); ok {
		return w.entries[i].val, true
	}
	return v, false
}

// Put sets k's value: an append for a key above every other, O(live)
// for one below the top.
func (w *Window[K, V]) Put(k K, v V) {
	i, ok := w.search(k)
	if ok {
		w.entries[i].val = v
		return
	}
	if w.entries == nil {
		w.entries = make([]windowEntry[K, V], 0, windowRoom)
	}
	w.entries = slices.Insert(w.entries, i, windowEntry[K, V]{k, v})
}

// ForgetBelow removes every entry whose key is below bound — the pruning
// delete-loop — and, unless drop is nil, hands each removed value to it
// in key order. Vacated slots are zeroed, so the window pins nothing it
// no longer holds.
func (w *Window[K, V]) ForgetBelow(bound K, drop func(V)) {
	i, _ := w.search(bound)
	if drop != nil {
		for _, e := range w.entries[:i] {
			drop(e.val)
		}
	}
	n := copy(w.entries, w.entries[i:])
	clear(w.entries[n:])
	w.entries = w.entries[:n]
}

// Each calls f on every entry in key order; f must not modify the
// window.
func (w *Window[K, V]) Each(f func(K, V)) {
	for _, e := range w.entries {
		f(e.key, e.val)
	}
}
