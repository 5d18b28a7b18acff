package harness

import (
	"strings"
	"testing"
)

// TestTable1WorstCaseDecidesAtN10: under every worst-case strategy,
// every protocol reaches an honest-leader decision after GST at n=10,
// so neither Table 1 worst-case table has a stalled cell.
func TestTable1WorstCaseDecidesAtN10(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	outs, _ := table1WorstCase(Scale{Fs: []int{3}}, 42, SweepOptions{})
	for _, o := range outs {
		if got := o.Render(); strings.Contains(got, "stalled") {
			t.Errorf("a protocol stalled at n=10:\n%s", got)
		}
	}
}
