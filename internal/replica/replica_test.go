package replica

import (
	"slices"
	"testing"

	"lumiere/internal/msg"
	"lumiere/internal/pacemaker"
	"lumiere/internal/types"
)

type fakePM struct {
	started bool
	got     []msg.Kind
}

func (f *fakePM) Start()                               { f.started = true }
func (f *fakePM) CurrentView() types.View              { return 0 }
func (f *fakePM) CurrentEpoch() types.Epoch            { return 0 }
func (f *fakePM) Handle(_ types.NodeID, m msg.Message) { f.got = append(f.got, m.Kind()) }
func (f *fakePM) Leader(types.View) types.NodeID       { return 0 }

type fakeEngine struct {
	pacemaker.NopDriver
	got []msg.Kind
}

func (f *fakeEngine) Handle(_ types.NodeID, m msg.Message) { f.got = append(f.got, m.Kind()) }

func TestRoutingByKind(t *testing.T) {
	pm := &fakePM{}
	eng := &fakeEngine{}
	r := New(0, pm, eng)
	r.Start()
	if !pm.started {
		t.Fatal("pacemaker not started")
	}
	r.Deliver(1, &msg.Proposal{V: 1})
	r.Deliver(1, &msg.Vote{V: 1})
	r.Deliver(1, &msg.QC{V: 1})
	r.Deliver(1, &msg.ViewMsg{V: 2})
	r.Deliver(1, &msg.EC{V: 0})
	r.Deliver(1, &msg.Request{ID: 1<<48 | 7})
	// Client requests feed the engine's mempool, not the pacemaker.
	want := []msg.Kind{msg.KindProposal, msg.KindVote, msg.KindQC, msg.KindRequest}
	if !slices.Equal(eng.got, want) {
		t.Fatalf("engine got %v, want %v", eng.got, want)
	}
	if want := []msg.Kind{msg.KindView, msg.KindEC}; !slices.Equal(pm.got, want) {
		t.Fatalf("pm got %v, want %v", pm.got, want)
	}
}

// TestForeignRequestDropped: a request whose ID lies outside its sender's
// Submit namespace reaches neither the engine nor the pacemaker, so a
// peer cannot pre-claim another replica's next request IDs.
func TestForeignRequestDropped(t *testing.T) {
	pm := &fakePM{}
	eng := &fakeEngine{}
	r := New(0, pm, eng)
	r.Start()
	r.Deliver(1, &msg.Request{ID: 2<<48 | 1}) // node 2's first ID, sent by node 1
	r.Deliver(1, &msg.Request{ID: 1})         // node 0's first ID
	if len(eng.got)+len(pm.got) != 0 {
		t.Fatalf("forged requests delivered: engine %v, pm %v", eng.got, pm.got)
	}
}

func TestBufferingBeforeStart(t *testing.T) {
	pm := &fakePM{}
	eng := &fakeEngine{}
	r := New(0, pm, eng)
	r.Deliver(1, &msg.QC{V: 1})
	r.Deliver(1, &msg.ViewMsg{V: 2})
	if len(pm.got)+len(eng.got) != 0 {
		t.Fatal("delivered before start")
	}
	r.Start()
	if len(eng.got) != 1 || len(pm.got) != 1 {
		t.Fatalf("replay wrong: eng=%v pm=%v", eng.got, pm.got)
	}
	r.Start() // idempotent
}

func TestCrashedIgnoresEverything(t *testing.T) {
	pm := &fakePM{}
	eng := &fakeEngine{}
	r := New(0, pm, eng)
	r.Crashed = true
	r.Start()
	r.Deliver(1, &msg.QC{V: 1})
	if pm.started || len(pm.got)+len(eng.got) != 0 {
		t.Fatal("crashed replica acted")
	}
}
