package harness

import (
	"testing"
)

func TestExperimentQuick(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	for _, p := range AllProtocols {
		r := worstCase(p, 3, 42, SweepOptions{})
		t.Logf("%-14s worst f=3: msgs=%-6d lat=%-8v strat=%s", p, r.Msgs, r.Latency, r.Strategy)
	}
}
