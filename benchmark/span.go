package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Boundary tracing (README "T1"): the benchmark wraps every interface a
// layer's constructor accepts in a timing decorator (decorate.go). Each
// call through a decorator is a span. A layer's self time is its spans'
// durations minus the part their child spans cover, so the self times
// under one root add up to the root's duration exactly.

// spanName identifies a boundary; the names are the per-layer metric
// prefixes ("crypto.verify_agg" → crypto.verify_agg.calls / .self_s).
type spanName uint8

const (
	spRoot    spanName = iota // sim.run: the scheduler loop (sim workloads)
	spBoot                    // harness.boot: per-replica construction at t=0
	spDeliver                 // replica.deliver: network → replica hand-off
	spCoreHandle
	spCoreTimer
	spViewcoreHandle
	spViewcoreTimer
	spHotstuffHandle
	spHotstuffTimer
	spDriver // pacemaker → engine notifications (EnterView, LeaderStart)
	spSign
	spVerify
	spAggregate
	spVerifyAgg
	spSend
	spBroadcast
	spLink
	spOnSend
	spRecordCommit
	spApply
	spSubmit // workload.submit: generator → mempool
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRoot:           "sim.run",
	spBoot:           "harness.boot",
	spDeliver:        "replica.deliver",
	spCoreHandle:     "core.handle",
	spCoreTimer:      "core.timer",
	spViewcoreHandle: "viewcore.handle",
	spViewcoreTimer:  "viewcore.timer",
	spHotstuffHandle: "hotstuff.handle",
	spHotstuffTimer:  "hotstuff.timer",
	spDriver:         "engine.driver",
	spSign:           "crypto.sign",
	spVerify:         "crypto.verify",
	spAggregate:      "crypto.aggregate",
	spVerifyAgg:      "crypto.verify_agg",
	spSend:           "network.send",
	spBroadcast:      "network.broadcast",
	spLink:           "network.link",
	spOnSend:         "metrics.onsend",
	spRecordCommit:   "metrics.record_commit",
	spApply:          "statemachine.apply",
	spSubmit:         "workload.submit",
}

// span is one retained boundary crossing. Spans of one delivered
// message, timer callback or submitted command share Req.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Parent int32  `json:"parent"` // index of the causing span among the retained ones, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanStat aggregates every span of one name, retained or not.
type spanStat struct {
	Calls       int64
	Total, Self int64 // ns
}

// maxRetainedSpans bounds the in-memory span buffer: a traced n=1024
// repetition crosses ~10⁷ boundaries, and the aggregates (spanStat) are
// what the metrics need; the retained prefix is written out for reading.
const maxRetainedSpans = 100_000

type openSpan struct {
	name     spanName
	start    int64
	children int64
	retained int32
}

// recorder collects the spans of one serialized execution context: the
// single-threaded simulator, or one TCP node under its node lock.
type recorder struct {
	now      func() int64
	stack    []openSpan
	stats    [numSpanNames]spanStat
	retained []span
	nextReq  uint64
	req      uint64
}

func newRecorder() *recorder {
	epoch := time.Now()
	return &recorder{now: func() int64 { return int64(time.Since(epoch)) }}
}

// begin opens a span caused by the innermost open span.
func (r *recorder) begin(name spanName) {
	if len(r.stack) == 0 {
		r.nextReq++
		r.req = r.nextReq
	}
	o := openSpan{name: name, start: r.now(), retained: -1}
	if len(r.retained) < maxRetainedSpans {
		parent := int32(-1)
		if len(r.stack) > 0 {
			parent = r.stack[len(r.stack)-1].retained
		}
		o.retained = int32(len(r.retained))
		r.retained = append(r.retained, span{Name: spanNames[name], Req: r.req, Parent: parent, Start: o.start})
	}
	r.stack = append(r.stack, o)
}

// end closes the innermost open span and charges its duration to its
// parent's children.
func (r *recorder) end() {
	end := r.now()
	o := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := end - o.start
	st := &r.stats[o.name]
	st.Calls++
	st.Total += dur
	st.Self += dur - o.children
	if len(r.stack) > 0 {
		r.stack[len(r.stack)-1].children += dur
	}
	if o.retained >= 0 {
		r.retained[o.retained].End = end
	}
}

// merge adds another recorder's aggregates (TCP: one recorder per node).
func (r *recorder) merge(o *recorder) {
	for i := range r.stats {
		r.stats[i].Calls += o.stats[i].Calls
		r.stats[i].Total += o.stats[i].Total
		r.stats[i].Self += o.stats[i].Self
	}
}

func (r *recorder) calls(n spanName) float64 { return float64(r.stats[n].Calls) }
func (r *recorder) selfS(n spanName) float64 { return float64(r.stats[n].Self) / 1e9 }

// accounting renders each boundary's calls, self time and share of all
// self time. Where one root span covers the run (sim.run) the last line
// checks the arithmetic: the self times must add up to the root.
func (r *recorder) accounting() []string {
	var sum int64
	for i := range r.stats {
		sum += r.stats[i].Self
	}
	if sum == 0 {
		return nil
	}
	var out []string
	for i := range r.stats {
		if st := r.stats[i]; st.Calls > 0 {
			out = append(out, fmt.Sprintf("  %-22s calls %9d  self %8.3f s  %5.1f %%",
				spanNames[i], st.Calls, float64(st.Self)/1e9, 100*float64(st.Self)/float64(sum)))
		}
	}
	if root := r.stats[spRoot].Total; root > 0 {
		out = append(out, fmt.Sprintf("  self times account for %.1f %% of the %.3f s root span",
			100*float64(sum)/float64(root), float64(root)/1e9))
	}
	return out
}

// spanCostSeconds calibrates what one begin/end pair costs.
func spanCostSeconds() float64 {
	const pairs = 200_000
	r := newRecorder()
	r.retained = make([]span, maxRetainedSpans) // full: time the aggregate-only path
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		r.begin(spLink)
		r.end()
	}
	return time.Since(t0).Seconds() / pairs
}

// traceDir is where retained spans are written; it is inside the
// checkout and named in .gitignore.
const traceDir = ".bench_build/trace"

// writeSpans writes r's retained spans as JSON lines.
func writeSpans(name string, r *recorder) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(traceDir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.retained {
		if err := enc.Encode(&r.retained[i]); err != nil {
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
