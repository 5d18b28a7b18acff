//go:build go1.24

package harness

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestArenaRetainsNoCell: once RunIn returns, the arena holds capacity,
// not the cell. The attack, equivocator and churn cells of leakCells and
// then the SMR cell run through one arena; after each, the Result is
// dropped and every engine it exposed must be collected. A pending
// timer, a replica shell or a network observer still pointing into the
// cell keeps its engines alive and fails the test. Last, the heap the
// arena alone holds after the SMR cell is bounded.
func TestArenaRetainsNoCell(t *testing.T) {
	var cells []Scenario
	for _, s := range leakCells() {
		switch s.Name {
		case "attack", "equivocate", "churn":
			cells = append(cells, s)
		}
	}
	cells = append(cells, smrCell())
	arena := NewArena()
	for _, s := range cells {
		var collected atomic.Int32
		engines := watchEngines(RunIn(arena, s), &collected)
		deadline := time.Now().Add(10 * time.Second)
		for collected.Load() < engines {
			if time.Now().After(deadline) {
				t.Fatalf("cell %q: %d of %d engines still reachable after the Result was dropped",
					s.Name, engines-collected.Load(), engines)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	withArena := liveHeap()
	runtime.KeepAlive(arena)
	held := int64(withArena) - int64(liveHeap())
	const budget = 5 << 20
	if held > budget {
		t.Fatalf("a warm arena holds %.1f MB after the SMR cell, budget %d MB", float64(held)/(1<<20), budget>>20)
	}
	t.Logf("a warm arena holds %.1f MB after the SMR cell (budget %d MB)", float64(held)/(1<<20), budget>>20)
}

// watchEngines registers a cleanup counting into collected on every
// engine res exposes, and returns how many it registered. The caller
// must not keep res. A finalizer would never run: an engine and its
// pacemaker point at each other, and a finalizer keeps alive everything
// its object reaches, the object included.
func watchEngines(res *Result, collected *atomic.Int32) int32 {
	var n int32
	for _, e := range res.Engines {
		if e != nil {
			runtime.AddCleanup((*byte)(reflect.ValueOf(e).UnsafePointer()), func(int) { collected.Add(1) }, 0)
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
