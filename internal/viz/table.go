package viz

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is a rendered experiment result: a titled grid matching the
// paper's presentation.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned text. Widths count runes, as fmt's
// padding does, so a cell holding Δ or ≤ lines up with ASCII cells.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV formats the table as CSV.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// GridTable renders a "corner | col…" table with one row per name (the
// protocols, for all tables but the WAN one), each body cell rendered by
// cell(row, col).
func GridTable[R ~string](title, corner string, rows []R, cols []string, cell func(row, col int) string) *Table {
	t := &Table{Title: title, Header: append([]string{corner}, cols...)}
	for r, name := range rows {
		row := []string{string(name)}
		for c := range cols {
			row = append(row, cell(r, c))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// AxisLabels formats an axis as column headers.
func AxisLabels[V any](axis []V, label func(V) string) []string {
	out := make([]string, len(axis))
	for i, v := range axis {
		out[i] = label(v)
	}
	return out
}

// OrStalled renders a table cell: the formatted measure, or "stalled"
// when the run never produced it.
func OrStalled(ok bool, format string, args ...any) string {
	if !ok {
		return "stalled"
	}
	return fmt.Sprintf(format, args...)
}

// ShortDur renders a latency compactly (ms resolution above 10ms).
func ShortDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d >= 10*time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
}
