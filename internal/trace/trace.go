// Package trace records protocol-level event timelines, used to
// regenerate Figure 1 (the LP22 stall scenario) and its Lumiere
// counterpart, and for debugging executions.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"lumiere/internal/types"
)

// Kind classifies trace events.
type Kind string

// Event kinds emitted by the protocol implementations.
const (
	EnterView  Kind = "enter_view"
	EnterEpoch Kind = "enter_epoch"
	PauseClock Kind = "pause"
	Unpause    Kind = "unpause"
	Bump       Kind = "bump"
	SendView   Kind = "send_view"
	SendEpoch  Kind = "send_epochview"
	FormVC     Kind = "form_vc"
	SeeEC      Kind = "see_ec"
	SeeTC      Kind = "see_tc"
	QCProduced Kind = "qc_produced"
	QCSeen     Kind = "qc_seen"
	Success    Kind = "success"
)

// Event is one timeline entry.
type Event struct {
	At   types.Time
	Node types.NodeID
	Kind Kind
	View types.View
	Note string
}

// Tracer accumulates events. A nil *Tracer is a valid no-op sink, so
// protocol code can emit unconditionally.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	limit  int
}

// New creates a Tracer retaining at most limit events (0 = unlimited).
func New(limit int) *Tracer { return &Tracer{limit: limit} }

// Emit records an event. Safe on a nil receiver.
func (t *Tracer) Emit(at types.Time, node types.NodeID, kind Kind, view types.View, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limit > 0 && len(t.events) >= t.limit {
		return
	}
	t.events = append(t.events, Event{At: at, Node: node, Kind: kind, View: view, Note: note})
}

// Emitf records an event with a formatted note. Safe on a nil receiver.
func (t *Tracer) Emitf(at types.Time, node types.NodeID, kind Kind, view types.View, format string, args ...any) {
	if t == nil {
		return
	}
	t.Emit(at, node, kind, view, fmt.Sprintf(format, args...))
}

// Events returns a time-ordered copy of the log.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Event(nil), t.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Filter returns the events matching all non-zero criteria.
func (t *Tracer) Filter(node types.NodeID, kind Kind) []Event {
	var out []Event
	for _, e := range t.Events() {
		if node != types.NoNode && e.Node != node {
			continue
		}
		if kind != "" && e.Kind != kind {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Render formats the timeline as text, one event per line.
func (t *Tracer) Render() string {
	var b strings.Builder
	for _, e := range t.Events() {
		fmt.Fprintf(&b, "%12v  %-4v %-14s %-6v %s\n", e.At, e.Node, e.Kind, e.View, e.Note)
	}
	return b.String()
}
