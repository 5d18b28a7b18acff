// Package sim implements the deterministic discrete-event scheduler that
// underlies all laptop-scale executions. A single goroutine drains a
// priority queue of timestamped events; ties are broken by insertion
// order, and all randomness flows from one seeded source, so a given seed
// reproduces an execution exactly.
//
// The scheduler doubles as the protocol runtime (see clock.Runtime): the
// same protocol state machines run unmodified over real time in
// internal/nettcp.
//
// Events live in a pooled, index-addressed arena: the heap stores arena
// indices, freed slots are recycled through a free list, and cancels
// remove events from the heap immediately via the tracked heap position
// (guarded by a per-slot generation counter, so stale cancels are
// no-ops). Message deliveries are payload events — {from, to, msg}
// dispatched through the registered MsgSink — so the simulated send hot
// path performs no per-event allocation in steady state.
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"lumiere/internal/types"
)

// eventKind discriminates arena slots.
type eventKind uint8

const (
	kindFree  eventKind = iota // slot is on the free list
	kindFunc                   // callback event (timers, harness hooks)
	kindMsg                    // payload event dispatched through the sink
	kindMulti                  // multicast event: one heap entry, many recipients
)

// event is one arena slot. Slots are reused: gen increments every time a
// slot is freed, invalidating outstanding Timer handles.
type event struct {
	at   types.Time
	seq  uint64 // FIFO tiebreak for equal timestamps
	fn   func() // kindFunc only
	msg  any    // kindMsg and kindMulti
	from types.NodeID
	to   types.NodeID
	gen  uint32
	pos  int32 // heap position, -1 while free or being fired
	kind eventKind
	// nrecip counts the recipients of a kindMulti event, stored in runs
	// in delivery order: a full broadcast is two runs, not n−1 IDs. The
	// backing array stays with the slot across reuse, so a steady stream
	// of multicasts recycles recipient storage the same way the arena
	// recycles slots.
	nrecip int32
	runs   []mcRun
}

// mcRun is n consecutive recipient IDs starting at lo.
type mcRun struct{ lo, n int32 }

// addRecip appends one recipient to a kindMulti event: it extends the
// last run when to continues it and starts a new run otherwise (a repeat
// ID included), so expansion replays the exact Add order.
func (ev *event) addRecip(to types.NodeID) {
	ev.nrecip++
	if k := len(ev.runs) - 1; k >= 0 && ev.runs[k].lo+ev.runs[k].n == int32(to) {
		ev.runs[k].n++
		return
	}
	ev.runs = append(ev.runs, mcRun{lo: int32(to), n: 1})
}

// Timer identifies a scheduled callback for cancellation without
// allocating a closure. The zero Timer is inert.
type Timer struct {
	id  int32
	gen uint32
	set bool
}

// MsgSink consumes payload events when they fire. The simulated network
// registers itself here; m is the message value passed to SendAt.
type MsgSink func(from, to types.NodeID, m any)

// Scheduler is a deterministic discrete-event loop. It is not safe for
// concurrent use: all protocol code runs on the single event loop.
type Scheduler struct {
	now       types.Time
	arena     []event
	free      []int32 // indices of recycled arena slots
	heap      []int32 // min-heap of arena indices, ordered by (at, seq)
	seq       uint64
	rng       *rand.Rand
	fired     uint64
	scheduled uint64
	sink      MsgSink

	// mcPool is the stack of reusable multicast builders (depth > 1 only
	// when an observer reached from a build triggers a nested broadcast);
	// expand is the recipient-run scratch a firing multicast event is
	// copied into before its slot is released back to the arena.
	mcPool  []*Multicast
	mcDepth int
	expand  []mcRun
}

// New creates a Scheduler with virtual time 0 and randomness from seed.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Clear frees every arena slot: pending events leave the heap without
// firing, their closure and payload references are dropped, and
// outstanding Timer handles go stale via the generation counters. The
// virtual clock, the counters and the random source are left alone, so
// clocks still reading Now after an execution keep their final time, and
// the registered MsgSink stays. A stopped clock.Wall clears its timer
// heap this way.
func (s *Scheduler) Clear() {
	for i := range s.arena {
		ev := &s.arena[i]
		ev.fn = nil
		ev.msg = nil
		ev.runs, ev.nrecip = ev.runs[:0], 0
		ev.kind = kindFree
		ev.pos = -1
		ev.gen++
	}
	s.free = s.free[:0]
	// Refill the free list high-to-low so slots are handed out in
	// ascending order, matching a fresh scheduler's append order.
	for i := len(s.arena) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.heap = s.heap[:0]
	s.mcDepth = 0
}

// Now returns the current virtual time.
func (s *Scheduler) Now() types.Time { return s.now }

// Rand returns the execution's random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Events returns the number of events fired so far. A multicast event
// counts once per recipient it expands to, so the tally matches what a
// per-recipient scheduler would have fired (run budgets and abort
// thresholds keep their meaning under the collapsed representation).
func (s *Scheduler) Events() uint64 { return s.fired }

// Scheduled returns the number of heap insertions so far. Unlike
// Events, a multicast counts once per *heap entry* — one per distinct
// delivery time — so the gap between Scheduled and Events measures how
// much the multicast representation collapses broadcast fan-out.
func (s *Scheduler) Scheduled() uint64 { return s.scheduled }

// Pending returns the number of events currently scheduled (heap
// entries: a multicast to any number of recipients counts once).
// Cancelled events leave the heap immediately and are not counted.
func (s *Scheduler) Pending() int { return len(s.heap) }

// NextAt returns the time of the earliest pending event, and false when
// none is pending. A runtime draining the heap against another clock
// (clock.Wall) peeks here to learn how long to sleep.
func (s *Scheduler) NextAt() (types.Time, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.arena[s.heap[0]].at, true
}

// SetSink registers the consumer of payload events (see SendAt). The
// simulated network owns the sink; a scheduler carries exactly one for
// its lifetime, and a second registration panics — silently replacing
// the sink would cross-wire deliveries already in the heap.
func (s *Scheduler) SetSink(sink MsgSink) {
	if s.sink != nil {
		panic("sim: MsgSink already registered (one network per scheduler)")
	}
	s.sink = sink
}

// ---------------------------------------------------------------------------
// Arena + heap internals
// ---------------------------------------------------------------------------

func (s *Scheduler) less(a, b int32) bool {
	ea, eb := &s.arena[a], &s.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (s *Scheduler) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.arena[s.heap[i]].pos = int32(i)
	s.arena[s.heap[j]].pos = int32(j)
}

func (s *Scheduler) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Scheduler) down(i int) {
	n := len(s.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && s.less(s.heap[right], s.heap[left]) {
			min = right
		}
		if !s.less(s.heap[min], s.heap[i]) {
			return
		}
		s.swap(i, min)
		i = min
	}
}

// alloc grabs an arena slot, recycling from the free list first.
func (s *Scheduler) alloc() int32 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	s.arena = append(s.arena, event{pos: -1})
	return int32(len(s.arena) - 1)
}

// release returns a slot to the free list, dropping payload references so
// the arena never pins dead messages or closures, and bumping gen so
// outstanding cancel handles become stale.
func (s *Scheduler) release(id int32) {
	ev := &s.arena[id]
	ev.fn = nil
	ev.msg = nil
	ev.runs, ev.nrecip = ev.runs[:0], 0
	ev.kind = kindFree
	ev.pos = -1
	ev.gen++
	s.free = append(s.free, id)
}

// push inserts a filled slot into the heap.
func (s *Scheduler) push(id int32) {
	s.scheduled++
	s.arena[id].pos = int32(len(s.heap))
	s.heap = append(s.heap, id)
	s.up(len(s.heap) - 1)
}

// popMin removes and returns the earliest event's slot.
func (s *Scheduler) popMin() int32 {
	id := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.arena[s.heap[0]].pos = 0
	s.heap = s.heap[:last]
	if last > 0 {
		s.down(0)
	}
	s.arena[id].pos = -1
	return id
}

// removeAt deletes the event at heap position i, restoring heap order.
func (s *Scheduler) removeAt(i int) {
	last := len(s.heap) - 1
	id := s.heap[i]
	if i != last {
		s.heap[i] = s.heap[last]
		s.arena[s.heap[i]].pos = int32(i)
	}
	s.heap = s.heap[:last]
	if i < last {
		s.down(i)
		s.up(i)
	}
	s.arena[id].pos = -1
}

// schedule fills a slot shared by all scheduling entry points.
func (s *Scheduler) schedule(t types.Time) (int32, *event) {
	if t < s.now {
		t = s.now
	}
	id := s.alloc()
	ev := &s.arena[id]
	ev.at = t
	ev.seq = s.seq
	s.seq++
	s.push(id)
	return id, ev
}

// ---------------------------------------------------------------------------
// Scheduling API
// ---------------------------------------------------------------------------

// AtTimer schedules fn at absolute virtual time t (clamped to now for
// past times) and returns a Timer handle for Cancel. Unlike At, it
// allocates nothing beyond amortized arena growth.
func (s *Scheduler) AtTimer(t types.Time, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	id, ev := s.schedule(t)
	ev.fn = fn
	ev.kind = kindFunc
	return Timer{id: id, gen: ev.gen, set: true}
}

// Cancel removes a scheduled event from the heap immediately. Stale
// handles (already fired, already cancelled, or zero) are no-ops.
func (s *Scheduler) Cancel(tm Timer) {
	if !tm.set || int(tm.id) >= len(s.arena) {
		return
	}
	ev := &s.arena[tm.id]
	if ev.gen != tm.gen || ev.pos < 0 {
		return
	}
	s.removeAt(int(ev.pos))
	s.release(tm.id)
}

// At schedules fn at absolute virtual time t (clamped to now for past
// times) and returns a cancel function. Cancel is idempotent and removes
// the event from the heap immediately. The returned closure is the only
// allocation; use AtTimer/Cancel on allocation-sensitive paths.
func (s *Scheduler) At(t types.Time, fn func()) func() {
	tm := s.AtTimer(t, fn)
	return func() { s.Cancel(tm) }
}

// After schedules fn d from now and returns a cancel function. This
// implements clock.Runtime.
func (s *Scheduler) After(d time.Duration, fn func()) func() {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// SendAt schedules delivery of a payload event {from, to, m} at absolute
// virtual time t (clamped to now) through the registered sink. This is
// the zero-allocation message hot path: no closure, no cancel handle, no
// per-event heap object.
func (s *Scheduler) SendAt(t types.Time, from, to types.NodeID, m any) {
	if s.sink == nil {
		panic("sim: SendAt with no registered MsgSink")
	}
	_, ev := s.schedule(t)
	ev.from = from
	ev.to = to
	ev.msg = m
	ev.kind = kindMsg
}

// ---------------------------------------------------------------------------
// Multicast events
// ---------------------------------------------------------------------------

// mcEntry is one recipient of a multicast under construction.
type mcEntry struct {
	to types.NodeID
	at types.Time
}

// mcMaxTracked bounds the distinct delivery times tracked inline during
// Add. Up to this many, Commit groups entries with a linear scan (the
// no-chaos case has 1-2 distinct times); beyond it, Commit falls back to
// a stable sort of the entries.
const mcMaxTracked = 16

// Multicast accumulates the per-recipient delivery times of one logical
// broadcast and commits them as one heap event per *distinct* delivery
// time instead of one per recipient. Within a shared delivery time,
// recipients are dispatched in Add order, and each group's heap entry
// takes a fresh insertion seq, so an execution is indistinguishable from
// scheduling every recipient individually — only the heap (and the
// Scheduled counter) sees the collapsed representation.
//
// A builder is obtained from Scheduler.Multicast and must be finished
// with Commit before the event loop resumes; builders nest (a network
// observer reached between Add calls may trigger another broadcast) but
// must commit in LIFO order.
type Multicast struct {
	s       *Scheduler
	from    types.NodeID
	msg     any
	entries []mcEntry
	times   []types.Time // distinct delivery times, first-seen order
	slots   []int32      // Commit scratch: event slot per distinct time
}

// Multicast starts a multicast of m from one sender. Deliveries are
// dispatched through the registered MsgSink, like SendAt.
func (s *Scheduler) Multicast(from types.NodeID, m any) *Multicast {
	if s.sink == nil {
		panic("sim: Multicast with no registered MsgSink")
	}
	if s.mcDepth == len(s.mcPool) {
		s.mcPool = append(s.mcPool, &Multicast{s: s})
	}
	mc := s.mcPool[s.mcDepth]
	s.mcDepth++
	mc.from = from
	mc.msg = m
	mc.entries = mc.entries[:0]
	mc.times = mc.times[:0]
	return mc
}

// Add records delivery to one recipient at absolute virtual time t
// (clamped to now). Add the same recipient twice for duplicated
// transmissions. Deliveries sharing a timestamp fire in Add order.
func (mc *Multicast) Add(to types.NodeID, t types.Time) {
	if t < mc.s.now {
		t = mc.s.now
	}
	mc.entries = append(mc.entries, mcEntry{to: to, at: t})
	if len(mc.times) > mcMaxTracked {
		return // overflowed: Commit takes the sorting path
	}
	for _, seen := range mc.times {
		if seen == t {
			return
		}
	}
	mc.times = append(mc.times, t)
}

// Commit schedules the accumulated deliveries — one heap event per
// distinct delivery time — and returns the builder to the scheduler's
// pool. The builder must not be used after Commit.
func (mc *Multicast) Commit() {
	s := mc.s
	if s.mcDepth == 0 || s.mcPool[s.mcDepth-1] != mc {
		panic("sim: Multicast.Commit out of order")
	}
	switch {
	case len(mc.entries) == 0:
		// nothing to schedule
	case len(mc.times) <= mcMaxTracked:
		mc.commitGrouped()
	default:
		mc.commitSorted()
	}
	mc.msg = nil
	s.mcDepth--
}

// commitGrouped schedules one event per tracked distinct time and fills
// recipient sets with a linear scan — O(entries · distinct times).
func (mc *Multicast) commitGrouped() {
	s := mc.s
	mc.slots = mc.slots[:0]
	for _, t := range mc.times {
		mc.slots = append(mc.slots, mc.newGroup(t))
	}
	for _, e := range mc.entries {
		for i, t := range mc.times {
			if t == e.at {
				s.arena[mc.slots[i]].addRecip(e.to)
				break
			}
		}
	}
}

// commitSorted handles many distinct delivery times (chaotic per-link
// delays at large n): a stable sort by time preserves Add order within
// each group, and each run of equal times becomes one event.
func (mc *Multicast) commitSorted() {
	s := mc.s
	slices.SortStableFunc(mc.entries, func(a, b mcEntry) int {
		return cmp.Compare(a.at, b.at)
	})
	for i := 0; i < len(mc.entries); {
		j := i + 1
		for j < len(mc.entries) && mc.entries[j].at == mc.entries[i].at {
			j++
		}
		ev := &s.arena[mc.newGroup(mc.entries[i].at)]
		for _, e := range mc.entries[i:j] {
			ev.addRecip(e.to)
		}
		i = j
	}
}

// newGroup allocates and enqueues one kindMulti event at time t with an
// empty recipient set, returning its slot.
func (mc *Multicast) newGroup(t types.Time) int32 {
	id, ev := mc.s.schedule(t)
	ev.from = mc.from
	ev.msg = mc.msg
	ev.kind = kindMulti
	return id
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

// Step fires the next event, if any, advancing virtual time. It returns
// false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	id := s.popMin()
	ev := &s.arena[id]
	if ev.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v", s.now, ev.at))
	}
	s.now = ev.at
	s.fired++
	switch ev.kind {
	case kindFunc:
		fn := ev.fn
		s.release(id)
		fn()
	case kindMsg:
		from, to, m := ev.from, ev.to, ev.msg
		s.release(id)
		s.sink(from, to, m)
	case kindMulti:
		from, m := ev.from, ev.msg
		// Count every expansion so Events matches a per-recipient
		// scheduler (Step already counted the first delivery).
		s.fired += uint64(ev.nrecip - 1)
		// Copy the recipient runs out before releasing the slot: handlers
		// reached through the sink may schedule, growing the arena or
		// reusing this very slot mid-expansion. Expansion is never
		// reentrant (Step runs only on the event loop), so one scratch
		// buffer suffices.
		s.expand = append(s.expand[:0], ev.runs...)
		s.release(id)
		for _, r := range s.expand {
			for to := types.NodeID(r.lo); to < types.NodeID(r.lo+r.n); to++ {
				s.sink(from, to, m)
			}
		}
	default:
		panic("sim: free slot reached the heap")
	}
	return true
}

// RunUntil fires events until virtual time would exceed t, then sets the
// clock to t. Events scheduled exactly at t are fired.
func (s *Scheduler) RunUntil(t types.Time) {
	for len(s.heap) > 0 && s.arena[s.heap[0]].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances virtual time by d, firing all events in the window.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }
