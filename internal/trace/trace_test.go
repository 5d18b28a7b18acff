package trace

import (
	"strings"
	"testing"

	"lumiere/internal/types"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, 0, EnterView, 1, "")
	tr.Emitf(1, 0, EnterView, 1, "x %d", 3)
	if tr.Events() != nil {
		t.Fatal("nil tracer returned events")
	}
}

func TestEmitAndOrder(t *testing.T) {
	tr := New(0)
	tr.Emit(5, 1, QCSeen, 2, "b")
	tr.Emit(3, 0, EnterView, 1, "a")
	evs := tr.Events()
	if len(evs) != 2 || evs[0].At != 3 || evs[1].At != 5 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestLimit(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Emit(types.Time(i), 0, EnterView, types.View(i), "")
	}
	if len(tr.Events()) != 2 {
		t.Fatalf("limit not enforced: %d", len(tr.Events()))
	}
}

func TestFilter(t *testing.T) {
	tr := New(0)
	tr.Emit(1, 0, EnterView, 1, "")
	tr.Emit(2, 1, EnterView, 2, "")
	tr.Emit(3, 0, QCProduced, 2, "")
	if got := tr.Filter(0, ""); len(got) != 2 {
		t.Fatalf("filter node: %d", len(got))
	}
	if got := tr.Filter(types.NoNode, EnterView); len(got) != 2 {
		t.Fatalf("filter kind: %d", len(got))
	}
}

func TestRender(t *testing.T) {
	tr := New(0)
	tr.Emitf(1, 2, Bump, 3, "to %d", 7)
	out := tr.Render()
	if !strings.Contains(out, "bump") || !strings.Contains(out, "to 7") {
		t.Fatalf("render = %q", out)
	}
}
