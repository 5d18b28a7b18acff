//go:build go1.24

package harness

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/network"
	"lumiere/internal/replica"
	"lumiere/internal/workload"
)

// TestArenaRetainsNoCell: a finished cell is garbage once Run returns,
// though its Result is still held. An adaptive attack, an SMR
// equivocator at f=2, churn with loss and an omission budget, the SMR
// cell and a gap-sampling cell each run, and every engine is taken from
// the cell's shells to watch it. All Results stay held, and every engine
// must be collected: a Result field that reaches an engine fails the
// test — the live collector classifying honesty through the network
// (whose handlers are the shells), or a gap tracker keeping the clocks,
// whose alarms are pacemaker closures, among them.
func TestArenaRetainsNoCell(t *testing.T) {
	delta := 50 * time.Millisecond
	gst := 2 * time.Second
	dur := 8 * time.Second
	cells := []Scenario{
		{Name: "attack", Protocol: ProtoLumiere, F: 1, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, Attack: adversary.AttackSpec{Name: adversary.AttackSaturate}},
		{Name: "equivocate", Protocol: ProtoLumiere, F: 2, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, SMR: true, Workload: &workload.Config{Rate: 50},
			Corruptions: []adversary.Corruption{{Node: 0, Behavior: adversary.BehaviorEquivocating}}},
		{Name: "churn", Protocol: ProtoFever, F: 2, Delta: delta, DeltaActual: delta / 10,
			GST: gst, Duration: dur, Loss: 0.2, LossUntil: gst,
			OmissionBudget: network.OmissionBudget{MaxMessages: 10, MaxSenders: 1},
			Corruptions: []adversary.Corruption{adversary.Churn(1,
				adversary.Downtime{From: 500 * time.Millisecond, To: time.Second})}},
		smrCell(),
		{Name: "gaps", Protocol: ProtoLumiere, F: 1, Delta: delta, DeltaActual: delta / 10,
			Duration: 4 * time.Second, StartStagger: time.Second, SampleGaps: true},
	}
	var held []*Result
	for _, s := range cells {
		var collected atomic.Int32
		res, shells := run(s)
		engines := watchEngines(shells, &collected)
		held = append(held, res)
		if engines == 0 {
			t.Fatalf("cell %q: no engine to watch", s.Name)
		}
		deadline := time.Now().Add(10 * time.Second)
		for collected.Load() < engines {
			if time.Now().After(deadline) {
				t.Fatalf("cell %q: %d of %d engines still reachable with only the Result held",
					s.Name, engines-collected.Load(), engines)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	if len(held[len(held)-1].Gaps.Samples()) == 0 {
		t.Fatal("the gap-sampling cell recorded no samples")
	}
	runtime.KeepAlive(held)
}

// watchEngines registers a cleanup counting into collected on every
// engine the shells hold, and returns how many it registered. The caller
// must not keep the shells. A finalizer would never run: an engine and
// its pacemaker point at each other, and a finalizer keeps alive
// everything its object reaches, the object included.
func watchEngines(shells []replica.Replica, collected *atomic.Int32) int32 {
	var n int32
	for i := range shells {
		if c := shells[i].Core; c != nil {
			runtime.AddCleanup((*byte)(reflect.ValueOf(c).UnsafePointer()), func(int) { collected.Add(1) }, 0)
			n++
		}
	}
	return n
}
