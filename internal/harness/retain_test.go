//go:build go1.24

package harness

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lumiere/internal/replica"
)

// TestArenaRetainsNoCell: a finished cell is garbage once Run or RunIn
// returns, though its Result is still held. The attack, equivocator and
// churn cells of leakCells, the SMR cell and a gap-sampling cell each
// run on both paths, split where every engine is still in the arena's
// shells to take its handle: RunIn's, which detaches the Result from
// one warm arena, and Run's, which releases a one-shot arena whose
// Result keeps the live collector. All Results stay held, and every
// engine must be collected: a pending timer, a replica shell or a
// network handler still pointing into the cell fails the test, and so
// does a Result field that reaches an engine (a gap tracker keeping the
// clocks, whose alarms are pacemaker closures, among them). Last, the
// heap the warm arena alone holds after the final cell is bounded.
func TestArenaRetainsNoCell(t *testing.T) {
	var cells []Scenario
	for _, s := range leakCells() {
		switch s.Name {
		case "attack", "equivocate", "churn":
			cells = append(cells, s)
		}
	}
	cells = append(cells, smrCell(), Scenario{Name: "gaps", Protocol: ProtoLumiere, F: 1,
		Delta: 50 * time.Millisecond, DeltaActual: 5 * time.Millisecond, Duration: 4 * time.Second,
		StartStagger: time.Second, SampleGaps: true})
	arena := NewArena()
	paths := []struct {
		name   string
		arena  func() *Arena
		finish func(*Arena, *Result)
	}{
		{"RunIn", func() *Arena { return arena }, (*Arena).detach},
		{"Run", func() *Arena { return &Arena{} }, func(a *Arena, _ *Result) { a.release() }},
	}
	var held []*Result
	for _, s := range cells {
		for _, p := range paths {
			var collected atomic.Int32
			a := p.arena()
			res := a.run(s)
			engines := watchEngines(a.replicas, &collected)
			p.finish(a, res)
			held = append(held, res)
			if engines == 0 {
				t.Fatalf("%s cell %q: no engine to watch", p.name, s.Name)
			}
			deadline := time.Now().Add(10 * time.Second)
			for collected.Load() < engines {
				if time.Now().After(deadline) {
					t.Fatalf("%s cell %q: %d of %d engines still reachable with only the Result held",
						p.name, s.Name, engines-collected.Load(), engines)
				}
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
		}
	}
	if len(held[len(held)-1].Gaps.Samples()) == 0 {
		t.Fatal("the gap-sampling cell recorded no samples")
	}
	withArena := liveHeap()
	runtime.KeepAlive(arena)
	kept := int64(withArena) - int64(liveHeap())
	runtime.KeepAlive(held)
	const budget = 5 << 20
	if kept > budget {
		t.Fatalf("a warm arena holds %.1f MB after the last cell, budget %d MB", float64(kept)/(1<<20), budget>>20)
	}
	t.Logf("a warm arena holds %.1f MB after the last cell (budget %d MB)", float64(kept)/(1<<20), budget>>20)
}

// watchEngines registers a cleanup counting into collected on every
// engine the shells hold, and returns how many it registered. The caller
// must not keep the engines. A finalizer would never run: an engine and
// its pacemaker point at each other, and a finalizer keeps alive
// everything its object reaches, the object included.
func watchEngines(shells []*replica.Replica, collected *atomic.Int32) int32 {
	var n int32
	for _, r := range shells {
		if r.Core != nil {
			runtime.AddCleanup((*byte)(reflect.ValueOf(r.Core).UnsafePointer()), func(int) { collected.Add(1) }, 0)
			n++
		}
	}
	return n
}

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
