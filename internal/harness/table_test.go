package harness

import (
	"strings"
	"testing"
	"time"

	"lumiere/internal/viz"
)

func TestTableRender(t *testing.T) {
	tb := &viz.Table{Title: "demo", Header: []string{"a", "long-header", "c"}}
	tb.AddRow("x", "1", "2")
	tb.AddRow("longer-cell", "3", "4")
	tb.AddNote("a note %d", 7)
	out := tb.Render()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "longer-cell") {
		t.Fatal("missing cells")
	}
	if !strings.Contains(out, "note: a note 7") {
		t.Fatal("missing note")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows + note.
	if len(lines) != 6 {
		t.Fatalf("line count = %d: %q", len(lines), out)
	}
}

// TestTableRenderRuneWidths: a column is as wide as its widest cell in
// runes, so a cell holding Δ (two bytes, one rune) or ≤ (three bytes)
// neither widens its column nor shifts the cells after it.
func TestTableRenderRuneWidths(t *testing.T) {
	tb := &viz.Table{Title: "runes", Header: []string{"p", "gap ≤ Γ", "n"}}
	tb.AddRow("lumiere", "1.10Δ", "4")
	tb.AddRow("lp22", "stalled", "16")
	lines := strings.Split(strings.TrimSpace(tb.Render()), "\n")[1:]
	want := []string{
		"p        gap ≤ Γ  n ",
		"-------  -------  --",
		"lumiere  1.10Δ    4 ",
		"lp22     stalled  16",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rendered:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

func TestTableCSV(t *testing.T) {
	tb := &viz.Table{Title: "demo", Header: []string{"a", "b"}}
	tb.AddRow("x,y", `q"u`)
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""u"`) {
		t.Fatalf("csv escaping: %q", csv)
	}
}

func TestScenarioDefaults(t *testing.T) {
	s := Scenario{F: 1}.withDefaults()
	if s.Delta <= 0 || s.DeltaActual != s.Delta/10 || s.N != 4 || s.Duration <= 0 || s.Protocol != ProtoLumiere {
		t.Fatalf("defaults = %+v", s)
	}
	s2 := Scenario{F: 2, N: 8}.withDefaults()
	if s2.N != 8 {
		t.Fatal("explicit N overridden")
	}
}

func TestGammaOf(t *testing.T) {
	d := ProtoLumiere.Gamma(100)
	if d != 1000 {
		t.Fatalf("lumiere Γ = %v", d)
	}
	if ProtoFever.Gamma(100) != 800 || ProtoLP22.Gamma(100) != 400 {
		t.Fatal("baseline Γ wrong")
	}
}

// TestGammaOfMatchesPacemakers: the Γ the drivers size horizons in and
// Validate bounds drift against is the Γ an execution runs with.
func TestGammaOfMatchesPacemakers(t *testing.T) {
	t.Parallel()
	for _, p := range append([]Protocol{ProtoRareSync}, AllProtocols...) {
		res := Run(Scenario{Protocol: p, F: 1, Delta: testDelta, Duration: time.Second})
		if got := p.Gamma(testDelta); got <= 0 || got != res.Gamma {
			t.Errorf("%s: Protocol.Gamma = %v, the run's pacemakers use Γ = %v", p, got, res.Gamma)
		}
	}
}
