// Package viz renders experiment output: the aligned text and CSV tables
// every section prints, and ASCII charts: scaling curves
// for the Table 1 sweeps and per-processor timeline swimlanes that
// reproduce Figure 1's presentation.
package viz

import (
	"fmt"
	"math"
	"strings"

	"lumiere/internal/trace"
	"lumiere/internal/types"
)

// Series is one named curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// markers cycles per-series point glyphs.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Plot renders series on a width×height ASCII grid. logY plots log10 of
// the values (for scaling comparisons where exponents are the point).
func Plot(title string, series []Series, width, height int, logY bool) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	tx := func(v float64) float64 { return v }
	ty := tx
	if logY {
		ty = func(v float64) float64 {
			if v <= 0 {
				return 0
			}
			return math.Log10(v)
		}
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			x, y := tx(s.X[i]), ty(s.Y[i])
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if math.IsInf(minX, 1) {
		return fmt.Sprintf("%s\n(no data)\n", title)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			col := int(math.Round((tx(s.X[i]) - minX) / (maxX - minX) * float64(width-1)))
			row := int(math.Round((ty(s.Y[i]) - minY) / (maxY - minY) * float64(height-1)))
			r := height - 1 - row
			if r >= 0 && r < height && col >= 0 && col < width {
				grid[r][col] = m
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	yLabel := func(v float64) string {
		if logY {
			return fmt.Sprintf("%8.4g", math.Pow(10, v))
		}
		return fmt.Sprintf("%8.4g", v)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", 8)
		switch i {
		case 0:
			label = yLabel(maxY)
		case height - 1:
			label = yLabel(minY)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, row)
	}
	fmt.Fprintf(&b, "%s  %-*.4g%*.4g\n", strings.Repeat(" ", 8), width/2, minX, width-width/2, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// laneGlyphs maps trace kinds to swimlane characters, most significant
// last (later entries win a contested cell).
var laneGlyphs = []struct {
	kind  trace.Kind
	glyph byte
}{
	{trace.QCSeen, '.'},
	{trace.SendView, 'v'},
	{trace.Bump, 'b'},
	{trace.EnterView, '|'},
	{trace.SendEpoch, 'E'},
	{trace.Unpause, 'U'},
	{trace.PauseClock, 'P'},
	{trace.QCProduced, 'Q'},
}

// Swimlane renders per-processor timelines in [from, to] across width
// columns — the Figure 1 presentation: each lane shows view entries,
// pauses, heavy syncs and QC production for one processor.
func Swimlane(events []trace.Event, n int, from, to types.Time, width int) string {
	if width < 20 {
		width = 20
	}
	if to <= from {
		return "(empty window)\n"
	}
	rank := make(map[trace.Kind]int, len(laneGlyphs))
	glyph := make(map[trace.Kind]byte, len(laneGlyphs))
	for i, g := range laneGlyphs {
		rank[g.kind] = i
		glyph[g.kind] = g.glyph
	}
	lanes := make([][]byte, n)
	best := make([][]int, n)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat("-", width))
		best[i] = make([]int, width)
		for j := range best[i] {
			best[i][j] = -1
		}
	}
	span := float64(to - from)
	for _, e := range events {
		if e.At < from || e.At > to || int(e.Node) < 0 || int(e.Node) >= n {
			continue
		}
		g, ok := glyph[e.Kind]
		if !ok {
			continue
		}
		col := int(float64(e.At-from) / span * float64(width-1))
		if rank[e.Kind] > best[e.Node][col] {
			best[e.Node][col] = rank[e.Kind]
			lanes[e.Node][col] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %v .. %v\n", from, to)
	for i, lane := range lanes {
		fmt.Fprintf(&b, "p%-3d %s\n", i, lane)
	}
	b.WriteString("     legend: Q=QC produced  P=pause  U=unpause  E=epoch-view  |=enter view  b=bump  v=view msg  .=qc seen\n")
	return b.String()
}
