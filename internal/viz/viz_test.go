package viz

import (
	"strings"
	"testing"

	"lumiere/internal/trace"
)

func TestPlotBasics(t *testing.T) {
	out := Plot("demo", []Series{
		{Name: "linear", X: []float64{1, 2, 3, 4}, Y: []float64{1, 2, 3, 4}},
		{Name: "quadratic", X: []float64{1, 2, 3, 4}, Y: []float64{1, 4, 9, 16}},
	}, 40, 10, false)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "linear") || !strings.Contains(out, "quadratic") {
		t.Fatalf("plot missing parts:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("markers missing")
	}
}

func TestPlotLogY(t *testing.T) {
	out := Plot("log", []Series{{Name: "s", X: []float64{1, 2}, Y: []float64{10, 1000}}}, 30, 6, true)
	if !strings.Contains(out, "1000") {
		t.Fatalf("log labels wrong:\n%s", out)
	}
}

func TestPlotEmpty(t *testing.T) {
	if out := Plot("e", nil, 30, 6, false); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot = %q", out)
	}
}

func TestPlotDegenerateRanges(t *testing.T) {
	out := Plot("d", []Series{{Name: "pt", X: []float64{5}, Y: []float64{7}}}, 20, 5, false)
	if !strings.Contains(out, "pt") {
		t.Fatal("single-point plot broken")
	}
}

// lanesOnly strips the header and legend, keeping only "pN ..." lanes.
func lanesOnly(out string) string {
	var lanes []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "p") {
			lanes = append(lanes, line)
		}
	}
	return strings.Join(lanes, "\n")
}

func TestSwimlane(t *testing.T) {
	events := []trace.Event{
		{At: 10, Node: 0, Kind: trace.EnterView, View: 1},
		{At: 20, Node: 0, Kind: trace.QCProduced, View: 1},
		{At: 30, Node: 1, Kind: trace.PauseClock, View: 2},
		{At: 40, Node: 1, Kind: trace.SendEpoch, View: 2},
		{At: 50, Node: 1, Kind: trace.Unpause, View: 2},
	}
	out := lanesOnly(Swimlane(events, 2, 0, 100, 50))
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p1") {
		t.Fatalf("lanes missing:\n%s", out)
	}
	for _, g := range []string{"Q", "P", "E", "U", "|"} {
		if !strings.Contains(out, g) {
			t.Fatalf("glyph %s missing:\n%s", g, out)
		}
	}
}

func TestSwimlanePriority(t *testing.T) {
	// Two events in the same cell: QCProduced outranks QCSeen.
	events := []trace.Event{
		{At: 10, Node: 0, Kind: trace.QCSeen, View: 1},
		{At: 10, Node: 0, Kind: trace.QCProduced, View: 1},
	}
	out := lanesOnly(Swimlane(events, 1, 0, 100, 20))
	if !strings.Contains(out, "Q") {
		t.Fatalf("priority broken:\n%s", out)
	}
}

func TestSwimlaneBounds(t *testing.T) {
	events := []trace.Event{
		{At: 500, Node: 0, Kind: trace.QCProduced}, // outside window
		{At: 10, Node: 9, Kind: trace.QCProduced},  // unknown node
	}
	out := lanesOnly(Swimlane(events, 1, 0, 100, 20))
	if strings.Contains(out, "Q") {
		t.Fatalf("out-of-bounds events rendered:\n%s", out)
	}
	if Swimlane(nil, 1, 100, 100, 20) != "(empty window)\n" {
		t.Fatal("empty window not handled")
	}
}
