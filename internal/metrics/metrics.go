// Package metrics implements the complexity measures of §2 of the paper:
// communication complexity W_T (messages sent by correct processors
// between T and the next honest-leader consensus decision t*_T), worst-
// case and eventual worst-case latency, and the honest clock gaps hg_i of
// Definition 3.1.
//
// The Collector aggregates online: per-kind counters, a compressed
// cumulative send series (one point per distinct timestamp, so an n-node
// broadcast costs one entry, not n), and per-epoch-view last-send times
// for heavy-sync detection. No per-send state is kept, so memory scales
// with distinct network-activity instants rather than with total sends.
// All window queries (W_T, per-decision intervals, heavy syncs) are exact.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/quorum"
	"lumiere/internal/types"
)

// Decision is the paper's consensus-decision event: an honest lead(v)
// produced a QC for view v.
type Decision struct {
	At     types.Time
	View   types.View
	Leader types.NodeID
}

// sendPoint is one entry of the compressed cumulative send series: count
// honest sends totalling words words happened at exactly instant at.
type sendPoint struct {
	at    types.Time
	count int64
	words int64
}

// Option configures a Collector. The two left, WithEpochWords and
// WithSparse, change nothing.
type Option func(*Collector)

// WithEpochWords returns an option that changes nothing: no query reads
// a per-epoch word series, so none is kept.
//
// Deprecated: leave it out. It remains because the repository benchmark
// (benchmark/) calls it.
func WithEpochWords(types.View) Option { return func(*Collector) {} }

// WithSparse returns an option that changes nothing: the send series
// holds about three points per decision at any n, so no cap is needed.
//
// Deprecated: leave it out. It remains because the repository benchmark
// (benchmark/) calls it.
func WithSparse(int) Option { return func(*Collector) {} }

// Collector observes network traffic and decision events for one
// execution. It is safe for concurrent use (the TCP runtime delivers from
// multiple goroutines); under the simulator the mutex is uncontended.
type Collector struct {
	mu sync.Mutex

	// Streaming aggregates.
	points      []sendPoint // per-distinct-timestamp honest send counts and words
	prefix      []int64     // prefix[i] = sends strictly before points[i]; len(points)+1 entries
	prefixW     []int64     // prefixW[i] = words strictly before points[i]; len(points)+1 entries
	pointsDirty bool        // prefixes (and possibly point order) need rebuilding
	pointsInOrd bool        // appends observed in non-decreasing At order so far
	// byKind counts honest sends per msg.Kind, indexed by its uint8.
	byKind      [256]int64
	epochLast   quorum.Window[types.View, types.Time] // last epoch-view send per view
	honestTotal int64
	wordsTotal  int64
	byzTotal    int64

	decisions []Decision
	decInOrd  bool // decisions appended in non-decreasing At order so far

	commits     []commitPoint // per-command commit events (SMR workloads)
	commitInOrd bool          // commits appended in non-decreasing At order so far

	honest func(types.NodeID) bool
}

// commitPoint is one command's first commit: when it happened and the
// submit→commit latency.
type commitPoint struct {
	at    types.Time
	latNs int64
}

var _ network.Observer = (*Collector)(nil)

// NewCollector creates a Collector. honest classifies decision leaders; a
// nil function treats every node as honest.
func NewCollector(honest func(types.NodeID) bool, opts ...Option) *Collector {
	if honest == nil {
		honest = func(types.NodeID) bool { return true }
	}
	c := &Collector{
		honest:      honest,
		pointsInOrd: true,
		decInOrd:    true,
		commitInOrd: true,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Snapshot returns an independent copy of the Collector: every series,
// counter and window is deep-copied, so the copy answers all queries
// identically to the original at the moment of the call and shares no
// mutable state with it. A TCP node hands out
// snapshots of its live collector, which Merge folds into one.
func (c *Collector) Snapshot() *Collector {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &Collector{
		pointsDirty: c.pointsDirty,
		pointsInOrd: c.pointsInOrd,
		honestTotal: c.honestTotal,
		wordsTotal:  c.wordsTotal,
		byzTotal:    c.byzTotal,
		decInOrd:    c.decInOrd,
		commitInOrd: c.commitInOrd,
		honest:      c.honest,
		byKind:      c.byKind,
	}
	if c.points != nil {
		out.points = append([]sendPoint(nil), c.points...)
	}
	if c.prefix != nil {
		out.prefix = append([]int64(nil), c.prefix...)
		out.prefixW = append([]int64(nil), c.prefixW...)
	}
	if c.decisions != nil {
		out.decisions = append([]Decision(nil), c.decisions...)
	}
	if c.commits != nil {
		out.commits = append([]commitPoint(nil), c.commits...)
	}
	c.epochLast.Each(out.epochLast.Put)
	return out
}

// Merge folds o's execution into c, so that c answers every query as
// one Collector fed both streams would — the TCP cluster merges its
// honest nodes' snapshots this way. o must not be c; o is not modified.
// Send points, decisions and commits are appended out of order, and the
// queries restore time order; counters add up, and each epoch view keeps
// its latest send. Decisions are taken as o recorded them: c's honest
// function does not filter them again.
func (c *Collector) Merge(o *Collector) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(o.points) > 0 {
		if n := len(c.points); !o.pointsInOrd || n > 0 && o.points[0].at <= c.points[n-1].at {
			c.pointsInOrd = false
		}
		c.points = append(c.points, o.points...)
		c.pointsDirty = true
	}
	for k, n := range o.byKind {
		c.byKind[k] += n
	}
	o.epochLast.Each(c.epochSent)
	c.honestTotal += o.honestTotal
	c.wordsTotal += o.wordsTotal
	c.byzTotal += o.byzTotal
	if len(o.decisions) > 0 {
		if n := len(c.decisions); !o.decInOrd || n > 0 && o.decisions[0].At < c.decisions[n-1].At {
			c.decInOrd = false
		}
		c.decisions = append(c.decisions, o.decisions...)
	}
	if len(o.commits) > 0 {
		if n := len(c.commits); !o.commitInOrd || n > 0 && o.commits[0].at < c.commits[n-1].at {
			c.commitInOrd = false
		}
		c.commits = append(c.commits, o.commits...)
	}
}

// epochSent records an honest epoch-view-v send at at, keeping each
// view's latest.
func (c *Collector) epochSent(v types.View, at types.Time) {
	if last, ok := c.epochLast.At(v); !ok || at > last {
		c.epochLast.Put(v, at)
	}
}

// OnSend implements network.Observer. It is the per-transmission hot
// path: counter bumps and (at most) one amortized append per distinct
// timestamp, no per-send allocation.
func (c *Collector) OnSend(from, _ types.NodeID, m msg.Message, at types.Time, honestSender bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !honestSender {
		c.byzTotal++
		return
	}
	c.honestTotal++
	words := int64(msg.Words(m))
	c.wordsTotal += words
	kind := m.Kind()
	c.byKind[kind]++
	if kind == msg.KindEpochView {
		c.epochSent(m.View(), at)
	}
	if n := len(c.points); n > 0 && c.points[n-1].at == at {
		c.points[n-1].count++
		c.points[n-1].words += words
	} else {
		if n > 0 && at < c.points[n-1].at {
			c.pointsInOrd = false
		}
		c.points = append(c.points, sendPoint{at: at, count: 1, words: words})
	}
	c.pointsDirty = true
}

// OnDeliver implements network.Observer.
func (c *Collector) OnDeliver(types.NodeID, types.NodeID, msg.Message, types.Time) {}

// RecordDecision registers a QC produced by a leader; only honest leaders
// count as decisions per §2.
func (c *Collector) RecordDecision(v types.View, leader types.NodeID, at types.Time) {
	if !c.honest(leader) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.decisions); n > 0 && at < c.decisions[n-1].At {
		c.decInOrd = false
	}
	c.decisions = append(c.decisions, Decision{At: at, View: v, Leader: leader})
}

// RecordCommit registers the first commit of one SMR command: at is the
// commit instant, lat the submit→commit latency. The harness records a
// command once, at its first commit on any honest replica.
func (c *Collector) RecordCommit(at types.Time, lat time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.commits); n > 0 && at < c.commits[n-1].at {
		c.commitInOrd = false
	}
	c.commits = append(c.commits, commitPoint{at: at, latNs: int64(lat)})
}

// CommitCount returns the number of recorded command commits.
func (c *Collector) CommitCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.commits))
}

// CommitStats summarizes the per-command commit latency distribution.
type CommitStats struct {
	// Count is the number of commands committed in the window; PerSec is
	// the committed-command throughput over (after, last commit].
	Count  int
	PerSec float64
	// Latency percentiles of submit→first-commit.
	Mean, P50, P99, P999, Max time.Duration
}

// CommitLatencyStats summarizes the commits strictly after t (warmup
// exclusion). Percentiles use the same index convention as P99Msgs:
// element ⌊n·q/100⌋ of the sorted latencies.
func (c *Collector) CommitLatencyStats(t types.Time) CommitStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.commitInOrd {
		sort.Slice(c.commits, func(i, j int) bool { return c.commits[i].at < c.commits[j].at })
		c.commitInOrd = true
	}
	lo := sort.Search(len(c.commits), func(i int) bool { return c.commits[i].at > t })
	win := c.commits[lo:]
	var s CommitStats
	s.Count = len(win)
	if len(win) == 0 {
		return s
	}
	lats := make([]int64, len(win))
	var sum int64
	for i, p := range win {
		lats[i] = p.latNs
		sum += p.latNs
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	s.Mean = time.Duration(sum / int64(len(lats)))
	s.P50 = time.Duration(lats[(len(lats)*50)/100])
	s.P99 = time.Duration(lats[(len(lats)*99)/100])
	s.P999 = time.Duration(lats[(len(lats)*999)/1000])
	s.Max = time.Duration(lats[len(lats)-1])
	if span := win[len(win)-1].at.Sub(t); span > 0 {
		s.PerSec = float64(len(win)) / span.Seconds()
	}
	return s
}

// normalizeLocked brings the cumulative send series to query form: points
// sorted by time with duplicates merged (the simulator appends in order,
// so the sort is skipped there) and prefix sums rebuilt.
func (c *Collector) normalizeLocked() {
	// The length check covers the never-sent case: prefix must hold
	// len(points)+1 entries (i.e. [0]) even when no send ever arrived.
	if !c.pointsDirty && len(c.prefix) == len(c.points)+1 {
		return
	}
	if !c.pointsInOrd {
		sort.Slice(c.points, func(i, j int) bool { return c.points[i].at < c.points[j].at })
		merged := c.points[:0]
		for _, p := range c.points {
			if n := len(merged); n > 0 && merged[n-1].at == p.at {
				merged[n-1].count += p.count
				merged[n-1].words += p.words
			} else {
				merged = append(merged, p)
			}
		}
		c.points = merged
		c.pointsInOrd = true
	}
	if cap(c.prefix) < len(c.points)+1 {
		c.prefix = make([]int64, len(c.points)+1)
		c.prefixW = make([]int64, len(c.points)+1)
	}
	c.prefix = c.prefix[:len(c.points)+1]
	c.prefixW = c.prefixW[:len(c.points)+1]
	c.prefix[0], c.prefixW[0] = 0, 0
	for i, p := range c.points {
		c.prefix[i+1] = c.prefix[i] + p.count
		c.prefixW[i+1] = c.prefixW[i] + p.words
	}
	c.pointsDirty = false
}

// sortDecisionsLocked restores time order after out-of-order appends (the
// simulator records in order; the flag memoizes sortedness between
// appends so the common path never re-verifies or re-sorts).
func (c *Collector) sortDecisionsLocked() {
	if c.decInOrd {
		return
	}
	sort.SliceStable(c.decisions, func(i, j int) bool { return c.decisions[i].At < c.decisions[j].At })
	c.decInOrd = true
}

// HonestSends returns the total number of messages sent by honest
// processors.
func (c *Collector) HonestSends() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.honestTotal
}

// ByzantineSends returns the total number of messages sent by Byzantine
// processors (not charged to the protocol's complexity).
func (c *Collector) ByzantineSends() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byzTotal
}

// KindCount returns the number of honest sends of one message kind.
func (c *Collector) KindCount(k msg.Kind) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byKind[k]
}

// DecisionCount returns the number of honest-leader decisions without
// copying the log.
func (c *Collector) DecisionCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.decisions)
}

// Decisions returns a copy of the decision log, in time order. The
// internal log's sortedness is tracked across appends, so this sorts only
// when decisions actually arrived out of order (never under the
// simulator).
func (c *Collector) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sortDecisionsLocked()
	return append([]Decision(nil), c.decisions...)
}

// sendsBetween counts honest sends and their words with At in (a, b]
// from the compressed cumulative series. Callers must hold mu and have
// normalized.
func (c *Collector) sendsBetween(a, b types.Time) (msgs, words int64) {
	lo := sort.Search(len(c.points), func(i int) bool { return c.points[i].at > a })
	hi := sort.Search(len(c.points), func(i int) bool { return c.points[i].at > b })
	return c.prefix[hi] - c.prefix[lo], c.prefixW[hi] - c.prefixW[lo]
}

// FirstDecisionAfter returns the first decision strictly after t.
func (c *Collector) FirstDecisionAfter(t types.Time) (Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstDecisionAfterLocked(t)
}

func (c *Collector) firstDecisionAfterLocked(t types.Time) (Decision, bool) {
	c.sortDecisionsLocked()
	i := sort.Search(len(c.decisions), func(i int) bool { return c.decisions[i].At > t })
	if i == len(c.decisions) {
		return Decision{}, false
	}
	return c.decisions[i], true
}

// windowAfterLocked is the shared body of WindowAfter and
// WordsWindowAfter: messages, words and elapsed time from t to the
// first honest-leader decision after it. Callers must hold mu.
func (c *Collector) windowAfterLocked(t types.Time) (msgs, words int64, latency time.Duration, ok bool) {
	d, found := c.firstDecisionAfterLocked(t)
	if !found {
		return 0, 0, 0, false
	}
	c.normalizeLocked()
	m, w := c.sendsBetween(t, d.At)
	return m, w, d.At.Sub(t), true
}

// WindowAfter computes the paper's W_T and t*_T − T for a given T: the
// number of honest messages and elapsed time from T to the first
// honest-leader decision after T. ok is false when no decision follows T.
func (c *Collector) WindowAfter(t types.Time) (msgs int64, latency time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, _, lat, ok := c.windowAfterLocked(t)
	return m, lat, ok
}

// WordsWindowAfter is WindowAfter in words: the honest communication in
// words (msg.Words per send) and elapsed time from T to the first
// honest-leader decision after T.
func (c *Collector) WordsWindowAfter(t types.Time) (words int64, latency time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, w, lat, ok := c.windowAfterLocked(t)
	return w, lat, ok
}

// Interval summarizes one window between consecutive decisions.
type Interval struct {
	From, To types.Time
	Msgs     int64
	Words    int64
	Gap      time.Duration
}

// Intervals returns the per-decision windows strictly after t, skipping
// the first skip decisions after t (the paper's "warmup"). The i-th
// interval spans (d_i, d_{i+1}].
func (c *Collector) Intervals(t types.Time, skip int) []Interval {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sortDecisionsLocked()
	c.normalizeLocked()
	var out []Interval
	prev := t
	seen := 0
	for _, d := range c.decisions {
		if d.At <= t {
			continue
		}
		if seen >= skip {
			m, w := c.sendsBetween(prev, d.At)
			out = append(out, Interval{
				From:  prev,
				To:    d.At,
				Msgs:  m,
				Words: w,
				Gap:   d.At.Sub(prev),
			})
		}
		prev = d.At
		seen++
	}
	return out
}

// IntervalStats aggregates per-decision windows.
type IntervalStats struct {
	Count                int
	MaxMsgs, MeanMsgs    float64
	MaxWords, MeanWords  float64
	MaxGap, MeanGap      time.Duration
	TotalMsgs            int64
	TotalWords           int64
	TotalSpan            time.Duration
	P99Msgs              float64
	DecisionsPerSecSimed float64
}

// Stats summarizes the windows after t, skipping skip warmup decisions.
func (c *Collector) Stats(t types.Time, skip int) IntervalStats {
	ivs := c.Intervals(t, skip)
	var s IntervalStats
	s.Count = len(ivs)
	if len(ivs) == 0 {
		return s
	}
	msgs := make([]int64, 0, len(ivs))
	var sumMsgs, sumWords int64
	var sumGap time.Duration
	for _, iv := range ivs {
		msgs = append(msgs, iv.Msgs)
		sumMsgs += iv.Msgs
		sumWords += iv.Words
		sumGap += iv.Gap
		if float64(iv.Msgs) > s.MaxMsgs {
			s.MaxMsgs = float64(iv.Msgs)
		}
		if float64(iv.Words) > s.MaxWords {
			s.MaxWords = float64(iv.Words)
		}
		if iv.Gap > s.MaxGap {
			s.MaxGap = iv.Gap
		}
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i] < msgs[j] })
	s.P99Msgs = float64(msgs[(len(msgs)*99)/100])
	s.MeanMsgs = float64(sumMsgs) / float64(len(ivs))
	s.MeanWords = float64(sumWords) / float64(len(ivs))
	s.MeanGap = sumGap / time.Duration(len(ivs))
	s.TotalMsgs = sumMsgs
	s.TotalWords = sumWords
	s.TotalSpan = ivs[len(ivs)-1].To.Sub(ivs[0].From)
	if s.TotalSpan > 0 {
		s.DecisionsPerSecSimed = float64(len(ivs)) / s.TotalSpan.Seconds()
	}
	return s
}

// HeavySyncViews returns the distinct epoch views for which any honest
// processor sent an epoch-view message strictly after t — the number of
// heavy Θ(n²) synchronizations started after t. Computed from the
// streaming per-view last-send times, not a send log.
func (c *Collector) HeavySyncViews(t types.Time) []types.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]types.View, 0, c.epochLast.Len())
	c.epochLast.Each(func(v types.View, last types.Time) {
		if last > t {
			out = append(out, v)
		}
	})
	return out
}

// String summarizes the collector for logs.
func (c *Collector) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("metrics{honest=%d byz=%d decisions=%d}", c.honestTotal, c.byzTotal, len(c.decisions))
}

// WordsTotal returns the total honest communication in words (msg.Words
// per send): the paper's word complexity, accumulated over the whole
// execution.
func (c *Collector) WordsTotal() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wordsTotal
}

// WordsBetween returns the honest words sent in (a, b].
func (c *Collector) WordsBetween(a, b types.Time) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.normalizeLocked()
	_, w := c.sendsBetween(a, b)
	return w
}
