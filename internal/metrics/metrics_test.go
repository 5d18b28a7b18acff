package metrics

import (
	"fmt"
	"testing"
	"time"

	"lumiere/internal/msg"
	"lumiere/internal/types"
)

func fill(c *Collector) {
	// Honest sends at t = 1..10 (one per ns), plus Byzantine noise.
	for i := 1; i <= 10; i++ {
		c.OnSend(0, 1, &msg.ViewMsg{V: types.View(i)}, types.Time(i), true)
	}
	c.OnSend(2, 1, &msg.ViewMsg{V: 1}, 5, false)
	// Decisions at t = 3 (v1, leader 0), t = 7 (v2, leader 1, byz),
	// t = 9 (v3, leader 0).
	c.RecordDecision(1, 0, 3)
	c.RecordDecision(2, 9, 7) // leader 9 is Byzantine in this test
	c.RecordDecision(3, 0, 9)
	// Command commits at t = 4 and t = 8.
	c.RecordCommit(4, 3)
	c.RecordCommit(8, 5)
}

func newTestCollector() *Collector {
	return NewCollector(func(id types.NodeID) bool { return id != 9 })
}

func TestCollectorCounts(t *testing.T) {
	c := newTestCollector()
	fill(c)
	if c.HonestSends() != 10 {
		t.Fatalf("honest = %d", c.HonestSends())
	}
	if c.ByzantineSends() != 1 {
		t.Fatalf("byz = %d", c.ByzantineSends())
	}
	if c.KindCount(msg.KindView) != 10 {
		t.Fatalf("kind count = %d", c.KindCount(msg.KindView))
	}
}

func TestDecisionFiltering(t *testing.T) {
	c := newTestCollector()
	fill(c)
	decs := c.Decisions()
	if len(decs) != 2 {
		t.Fatalf("decisions = %d (byzantine leader must not count)", len(decs))
	}
	if decs[0].At != 3 || decs[1].At != 9 {
		t.Fatalf("decisions = %+v", decs)
	}
}

func TestWindowAfter(t *testing.T) {
	c := newTestCollector()
	fill(c)
	msgs, lat, ok := c.WindowAfter(0)
	if !ok || msgs != 3 || lat != 3 {
		t.Fatalf("window = (%d, %v, %v)", msgs, lat, ok)
	}
	msgs, lat, ok = c.WindowAfter(3)
	if !ok || msgs != 6 || lat != 6 {
		t.Fatalf("window after 3 = (%d, %v, %v)", msgs, lat, ok)
	}
	if _, _, ok := c.WindowAfter(100); ok {
		t.Fatal("window past last decision should fail")
	}
}

func TestIntervalsAndStats(t *testing.T) {
	c := newTestCollector()
	fill(c)
	ivs := c.Intervals(0, 0)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	// (0,3]: 3 msgs; (3,9]: 6 msgs.
	if ivs[0].Msgs != 3 || ivs[1].Msgs != 6 {
		t.Fatalf("intervals = %+v", ivs)
	}
	if ivs[1].Gap != 6 {
		t.Fatalf("gap = %v", ivs[1].Gap)
	}
	st := c.Stats(0, 0)
	if st.Count != 2 || st.MaxMsgs != 6 || st.MaxGap != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanMsgs != 4.5 {
		t.Fatalf("mean msgs = %v", st.MeanMsgs)
	}
	// Warmup skip drops the first decision's window.
	st = c.Stats(0, 1)
	if st.Count != 1 || st.MaxMsgs != 6 {
		t.Fatalf("warmup stats = %+v", st)
	}
}

func TestHeavySyncViews(t *testing.T) {
	c := newTestCollector()
	c.OnSend(0, 1, &msg.EpochViewMsg{V: 0}, 1, true)
	c.OnSend(1, 2, &msg.EpochViewMsg{V: 0}, 2, true)
	c.OnSend(0, 1, &msg.EpochViewMsg{V: 40}, 5, true)
	c.OnSend(3, 1, &msg.EpochViewMsg{V: 80}, 9, false) // byzantine: ignored
	got := c.HeavySyncViews(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 40 {
		t.Fatalf("heavy = %v", got)
	}
	if got := c.HeavySyncViews(2); len(got) != 1 || got[0] != 40 {
		t.Fatalf("heavy after 2 = %v", got)
	}
}

// TestDecisionsWithoutSends is the regression test for the
// zero-honest-traffic window query: decisions with no observed honest
// sends must yield empty windows, not a panic.
func TestDecisionsWithoutSends(t *testing.T) {
	c := NewCollector(nil)
	c.RecordDecision(1, 0, 5)
	msgs, lat, ok := c.WindowAfter(0)
	if !ok || msgs != 0 || lat != 5 {
		t.Fatalf("window = (%d, %v, %v), want (0, 5, true)", msgs, lat, ok)
	}
	if ivs := c.Intervals(0, 0); len(ivs) != 1 || ivs[0].Msgs != 0 {
		t.Fatalf("intervals = %+v", ivs)
	}
	if st := c.Stats(0, 0); st.Count != 1 || st.MaxMsgs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatsEmpty(t *testing.T) {
	c := newTestCollector()
	st := c.Stats(0, 0)
	if st.Count != 0 || st.MaxMsgs != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestNilHonestFunc(t *testing.T) {
	c := NewCollector(nil)
	c.RecordDecision(1, 5, 1)
	if len(c.Decisions()) != 1 {
		t.Fatal("nil honest func should accept all leaders")
	}
	_ = c.String()
	_ = time.Second
}

// TestOutOfOrderSends pins exactness when OnSend observes timestamps out
// of order (possible under the TCP runtime): window counts must match a
// sorted log.
func TestOutOfOrderSends(t *testing.T) {
	c := newTestCollector()
	for _, at := range []types.Time{5, 2, 8, 2, 5, 1} {
		c.OnSend(0, 1, &msg.ViewMsg{V: 1}, at, true)
	}
	c.RecordDecision(1, 0, 6)
	msgs, _, ok := c.WindowAfter(1) // sends in (1, 6]: at 2, 2, 5, 5
	if !ok || msgs != 4 {
		t.Fatalf("window = (%d, %v)", msgs, ok)
	}
	// Appends after a query must be folded into the next query.
	c.OnSend(0, 1, &msg.ViewMsg{V: 1}, 3, true)
	if msgs, _, _ = c.WindowAfter(1); msgs != 5 {
		t.Fatalf("window after late append = %d, want 5", msgs)
	}
}

func TestDecisionsOutOfOrderSorted(t *testing.T) {
	c := newTestCollector()
	c.RecordDecision(2, 0, 9)
	c.RecordDecision(1, 0, 3)
	c.RecordDecision(3, 0, 12)
	decs := c.Decisions()
	if len(decs) != 3 || decs[0].At != 3 || decs[1].At != 9 || decs[2].At != 12 {
		t.Fatalf("decisions = %+v", decs)
	}
	if d, ok := c.FirstDecisionAfter(4); !ok || d.At != 9 {
		t.Fatalf("first after 4 = %+v, %v", d, ok)
	}
	if c.DecisionCount() != 3 {
		t.Fatalf("count = %d", c.DecisionCount())
	}
}

// TestCollectorOnSendAllocs pins the streaming hot path: repeated sends
// at a warm collector must not allocate per send (the per-timestamp
// series grows only on distinct instants, amortized).
func TestCollectorOnSendAllocs(t *testing.T) {
	c := newTestCollector()
	m := &msg.ViewMsg{V: 1}
	at := types.Time(0)
	for i := 0; i < 100; i++ {
		at++
		c.OnSend(0, 1, m, at, true)
	}
	avg := testing.AllocsPerRun(1000, func() {
		at++
		c.OnSend(0, 1, m, at, true)
	})
	if avg > 0.1 {
		t.Errorf("OnSend allocates %.3f per send, want ~0", avg)
	}
}

func TestKappaAccounting(t *testing.T) {
	c := newTestCollector()
	c.OnSend(0, 1, &msg.ViewMsg{V: 1}, 1, true)
	c.OnSend(0, 1, &msg.Proposal{V: 1}, 2, true)
	c.OnSend(2, 1, &msg.QC{V: 1}, 3, false) // byzantine: not charged
	if got := c.KappaBytes(); got != 3 {
		t.Fatalf("kappa = %d, want 1 (view) + 2 (proposal)", got)
	}
}

func TestWordsAccounting(t *testing.T) {
	c := newTestCollector()
	c.OnSend(0, 1, &msg.ViewMsg{V: 1}, 1, true)  // 2 words
	c.OnSend(0, 1, &msg.QC{V: 1}, 2, true)       // 3 words
	c.OnSend(2, 1, &msg.QC{V: 1}, 3, false)      // byzantine: not charged
	c.OnSend(0, 1, &msg.Proposal{V: 2}, 4, true) // no justify: 2 words
	if got := c.WordsTotal(); got != 7 {
		t.Fatalf("words = %d, want 2+3+2", got)
	}
	if got := c.WordsBetween(1, 4); got != 5 {
		t.Fatalf("words in (1,4] = %d, want 5", got)
	}
	c.RecordDecision(1, 0, 3)
	w, lat, ok := c.WordsWindowAfter(0)
	if !ok || w != 5 || lat != 3 {
		t.Fatalf("words window = (%d, %v, %v), want (5, 3, true)", w, lat, ok)
	}
}

func TestWordsByEpoch(t *testing.T) {
	c := NewCollector(nil, WithEpochWords(2))        // epochs of 2 views
	c.OnSend(0, 1, &msg.ViewMsg{V: 0}, 1, true)      // epoch 0: 2 words
	c.OnSend(0, 1, &msg.ViewMsg{V: 1}, 2, true)      // epoch 0: 2 words
	c.OnSend(0, 1, &msg.EpochViewMsg{V: 4}, 3, true) // epoch 2: 2 words
	c.OnSend(2, 1, &msg.ViewMsg{V: 4}, 4, false)     // byzantine: not charged
	got := c.WordsByEpoch()
	want := []int64{4, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("epochs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epochs = %v, want %v", got, want)
		}
	}
	if NewCollector(nil).WordsByEpoch() != nil {
		t.Fatal("epoch words must be nil when not enabled")
	}
}

func TestIntervalWords(t *testing.T) {
	c := newTestCollector()
	fill(c) // 10 ViewMsgs (2 words each) at t=1..10; decisions at 3, 9
	ivs := c.Intervals(0, 0)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[0].Words != 6 || ivs[1].Words != 12 {
		t.Fatalf("interval words = %d, %d; want 6, 12", ivs[0].Words, ivs[1].Words)
	}
	s := c.Stats(0, 0)
	if s.TotalWords != 18 || s.MaxWords != 12 || s.MeanWords != 9 {
		t.Fatalf("stats words = %+v", s)
	}
}

// TestWordsAllocs extends the hot-path gate to the words and epoch-words
// accounting: a warm collector with the epoch series enabled must not
// allocate per send.
func TestWordsAllocs(t *testing.T) {
	c := NewCollector(nil, WithEpochWords(10))
	m := &msg.ViewMsg{V: 1}
	at := types.Time(0)
	for i := 0; i < 100; i++ {
		at++
		c.OnSend(0, 1, m, at, true)
	}
	avg := testing.AllocsPerRun(1000, func() {
		at++
		c.OnSend(0, 1, m, at, true)
	})
	if avg > 0.1 {
		t.Errorf("OnSend with epoch words allocates %.3f per send, want ~0", avg)
	}
}

// querySurface renders every query the experiment drivers use, so the
// Reset and Snapshot tests can compare collectors wholesale.
func querySurface(c *Collector) string {
	m, lat, ok := c.WindowAfter(2)
	w, _, _ := c.WordsWindowAfter(2)
	return fmt.Sprint(
		c.HonestSends(), c.ByzantineSends(), c.KappaBytes(), c.WordsTotal(),
		c.KindCount(msg.KindView), c.DecisionCount(), c.Decisions(),
		c.WordsBetween(0, 100), c.WordsByEpoch(), c.HeavySyncViews(0),
		c.Intervals(0, 0), c.Stats(0, 1), m, lat, ok, w,
		c.CommitCount(), c.CommitLatencyStats(0),
	)
}

// TestCollectorResetEquivalence pins the arena contract: a reset
// collector must answer every query exactly as a fresh one, including
// when options change across the reset.
func TestCollectorResetEquivalence(t *testing.T) {
	dirty := NewCollector(nil, WithEpochWords(2))
	fill(dirty)
	honest := func(id types.NodeID) bool { return id != 9 }
	dirty.Reset(honest, WithEpochWords(3))
	fresh := NewCollector(honest, WithEpochWords(3))
	if got, want := querySurface(dirty), querySurface(fresh); got != want {
		t.Fatalf("empty reset != fresh:\nreset: %s\nfresh: %s", got, want)
	}
	fill(dirty)
	fill(fresh)
	if got, want := querySurface(dirty), querySurface(fresh); got != want {
		t.Fatalf("refilled reset != fresh:\nreset: %s\nfresh: %s", got, want)
	}
}

// TestCollectorSnapshotIndependence pins Snapshot: identical answers at
// the moment of the call, unaffected by later mutation or reset of the
// original.
func TestCollectorSnapshotIndependence(t *testing.T) {
	c := NewCollector(func(id types.NodeID) bool { return id != 9 }, WithEpochWords(2))
	fill(c)
	snap := c.Snapshot()
	want := querySurface(c)
	if got := querySurface(snap); got != want {
		t.Fatalf("snapshot != original:\nsnap: %s\norig: %s", got, want)
	}
	// Mutate and reset the original; the snapshot must not move.
	c.OnSend(0, 1, &msg.ViewMsg{V: 99}, 50, true)
	c.RecordDecision(99, 0, 60)
	if got := querySurface(snap); got != want {
		t.Fatalf("snapshot moved after original mutated:\nsnap: %s\nwant: %s", got, want)
	}
	c.Reset(nil)
	if got := querySurface(snap); got != want {
		t.Fatalf("snapshot moved after original reset:\nsnap: %s\nwant: %s", got, want)
	}
}

// TestSparseCollectorCapsPoints: WithSparse bounds the send series while
// keeping every total exact; full-range window queries still see all
// traffic, and snapshots carry the cap.
func TestSparseCollectorCapsPoints(t *testing.T) {
	sparse := NewCollector(nil, WithSparse(16), WithEpochWords(10))
	exact := NewCollector(nil, WithEpochWords(10))
	m := &msg.ViewMsg{V: 3}
	for i := 0; i < 1000; i++ {
		at := types.Time(int64(i) * 1000)
		sparse.OnSend(0, 1, m, at, true)
		exact.OnSend(0, 1, m, at, true)
	}
	if got := len(sparse.points); got >= 32 {
		t.Fatalf("sparse series not capped: %d points", got)
	}
	if sparse.HonestSends() != exact.HonestSends() ||
		sparse.WordsTotal() != exact.WordsTotal() ||
		sparse.KappaBytes() != exact.KappaBytes() {
		t.Fatal("sparse totals drifted from exact collector")
	}
	we := exact.WordsByEpoch()
	ws := sparse.WordsByEpoch()
	if len(we) != len(ws) || we[0] != ws[0] {
		t.Fatal("epoch words drifted under sparse mode")
	}
	end := types.Time(int64(1000) * 1000)
	if sparse.WordsBetween(types.Time(-1), end) != exact.WordsBetween(types.Time(-1), end) {
		t.Fatal("full-range window lost sends under sparse mode")
	}
	snap := sparse.Snapshot()
	if snap.maxPoints != sparse.maxPoints {
		t.Fatal("snapshot dropped sparse cap")
	}
	// Coalescing moves sends later, never earlier: a prefix window can
	// only undercount.
	mid := types.Time(int64(500) * 1000)
	if sparse.WordsBetween(types.Time(-1), mid) > exact.WordsBetween(types.Time(-1), mid) {
		t.Fatal("sparse prefix window overcounts")
	}
	sparse.Reset(nil)
	if sparse.maxPoints != 0 {
		t.Fatal("Reset kept sparse cap")
	}
}

// TestCommitLatencyStats: the commit series answers count, throughput and
// latency percentiles over a warmup-excluded window, and tolerates
// out-of-order recording (the TCP runtime commits from goroutines).
func TestCommitLatencyStats(t *testing.T) {
	c := NewCollector(nil)
	// 100 commits, one per ms, latency i µs — recorded in reverse to
	// exercise the sort path.
	for i := 100; i >= 1; i-- {
		c.RecordCommit(types.Time(int64(i)*1_000_000), time.Duration(i)*time.Microsecond)
	}
	if c.CommitCount() != 100 {
		t.Fatalf("count = %d", c.CommitCount())
	}
	s := c.CommitLatencyStats(0)
	if s.Count != 100 || s.Max != 100*time.Microsecond {
		t.Fatalf("stats = %+v", s)
	}
	if s.P50 != 51*time.Microsecond || s.P99 != 100*time.Microsecond {
		t.Fatalf("p50 = %v p99 = %v", s.P50, s.P99)
	}
	if s.Mean != 50500*time.Nanosecond {
		t.Fatalf("mean = %v", s.Mean)
	}
	// Commits span (0, 100ms]: 100 commands in 0.1s = 1000/s.
	if s.PerSec < 999 || s.PerSec > 1001 {
		t.Fatalf("per-sec = %v", s.PerSec)
	}
	// Warmup exclusion: only commits strictly after 50ms count.
	s = c.CommitLatencyStats(50_000_000)
	if s.Count != 50 || s.P50 != 76*time.Microsecond {
		t.Fatalf("windowed stats = %+v", s)
	}
	if empty := c.CommitLatencyStats(1_000_000_000); empty.Count != 0 || empty.PerSec != 0 {
		t.Fatalf("empty window = %+v", empty)
	}
}
