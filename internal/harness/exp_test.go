package harness_test

import (
	"slices"
	"strings"
	"testing"

	"lumiere/internal/eval"
	"lumiere/internal/harness"
)

// TestTable1WorstCaseDecidesAtN10: under every worst-case strategy,
// every protocol reaches an honest-leader decision after GST at n=10,
// so neither Table 1 worst-case table has a stalled cell.
func TestTable1WorstCaseDecidesAtN10(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run in -short mode")
	}
	t.Parallel()
	i := slices.IndexFunc(eval.Evaluation, func(sec eval.Section) bool { return sec.Key == "Table1WorstCase" })
	outs, _ := eval.Evaluation[i].Run(eval.Scale{Fs: []int{3}}, 42, harness.SweepOptions{})
	for _, o := range outs {
		if got := o.Render(); strings.Contains(got, "stalled") {
			t.Errorf("a protocol stalled at n=10:\n%s", got)
		}
	}
}
