package eval

import (
	"testing"
	"time"

	"lumiere/internal/harness"
)

// testDelta is the Δ of the eval tests' own scenarios.
const testDelta = 50 * time.Millisecond

// skipInShort gates the paper-scale sweep tests: `go test -short` keeps
// the fast conformance and invariant coverage and skips the long
// steady-state runs (see DESIGN.md §4).
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-scale run in -short mode")
	}
}

// TestLumiereAdversarialSuccessCriterion: late-proposing Byzantine
// leaders keep the success criterion alive; Lumiere must keep deciding
// (§3.5's Γ-tuning argument).
func TestLumiereAdversarialSuccessCriterion(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	r := adversarialSuccess(2, 13)
	if r.Decisions < 100 {
		t.Fatalf("too few decisions under adversarial success criterion: %d", r.Decisions)
	}
	if r.MaxGap > 10*time.Second {
		t.Fatalf("stall too long: %v", r.MaxGap)
	}
}

// TestGapShrinkageConverges validates §3.5: from a large initial gap the
// (f+1)st honest gap comes below Γ and stays there.
func TestGapShrinkageConverges(t *testing.T) {
	t.Parallel()
	r := gapShrinkage(2, 17)
	if !r.Converged {
		t.Fatal("hg_{f+1} never came below Γ after GST")
	}
	if r.TimeToBelow > 60*time.Second {
		t.Fatalf("convergence took %v", r.TimeToBelow)
	}
	if r.MaxGapSteady > r.Gamma+testDelta {
		t.Fatalf("steady-state gap %v exceeds Γ+Δ (Γ=%v)", r.MaxGapSteady, r.Gamma)
	}
}

// TestThroughputScenarioShape pins the wiring of a throughput cell
// without running it: SMR mode, batch size, workload config
// and the non-divisor load axis. Runs in -short mode (CI smoke).
func TestThroughputScenarioShape(t *testing.T) {
	t.Parallel()
	s := throughputScenario(harness.ProtoLumiere, 1, 1500, 256, 7)
	if !s.SMR || s.SMRBatchSize != 256 || s.Workload == nil {
		t.Fatalf("scenario not an SMR workload cell: %+v", s)
	}
	if s.Workload.Rate != 1500 || s.Workload.Clients != throughputClients {
		t.Fatalf("workload config wrong: %+v", *s.Workload)
	}
	if s.Workload.PayloadPad != harness.ThroughputPayloadPad {
		t.Fatalf("payload pad = %d", s.Workload.PayloadPad)
	}
	for _, load := range throughputLoads {
		if int64(time.Second)%load == 0 {
			t.Fatalf("load %d divides 1s: axis must exercise the accumulator pacer", load)
		}
	}
}

// TestThroughputSanityCell runs one mid-table cell end to end and checks
// the measured numbers are physical: committed tracks submitted, PerSec
// reproduces the offered load, and latency is a few Δ.
func TestThroughputSanityCell(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	res := harness.Run(throughputScenario(harness.ProtoLumiere, 1, 1500, 256, 11))
	cell := measureThroughput(res)
	if cell.Submitted == 0 || cell.Committed == 0 {
		t.Fatalf("empty cell: %+v", cell)
	}
	// Open loop at 1500/s for 15s: exactly 22500 submitted (pacer is
	// exact), nearly all committed (only the in-flight tail is not).
	if cell.Submitted != 22500 {
		t.Fatalf("submitted = %d, want exactly 22500 (accumulator pacer)", cell.Submitted)
	}
	if cell.Committed < cell.Submitted*95/100 {
		t.Fatalf("committed %d of %d submitted", cell.Committed, cell.Submitted)
	}
	// Steady-state throughput must reproduce the offered load within 5%.
	if cell.PerSec < 1425 || cell.PerSec > 1575 {
		t.Fatalf("PerSec = %.1f, want ~1500", cell.PerSec)
	}
	if cell.P50 <= 0 || cell.P99 < cell.P50 || cell.P99 > time.Second {
		t.Fatalf("latency not physical: p50=%v p99=%v", cell.P50, cell.P99)
	}
	if cell.WordsPerCmd <= 0 {
		t.Fatalf("words/cmd = %v", cell.WordsPerCmd)
	}
}

// TestDriftConformanceInModel is the drift conformance gate: rates the
// harness accepts without UncheckedWAN must keep every Lemma 5.1–5.3
// obligation intact, for both compared protocols.
func TestDriftConformanceInModel(t *testing.T) {
	axis := []int64{0, 100, 10_000}
	if testing.Short() {
		axis = []int64{0, 10_000}
	}
	rep := driftSweep(1, axis, 77, harness.SweepOptions{})
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if !c.InModel {
			t.Errorf("%s ppm=%d: expected in-model", c.Protocol, c.PPM)
		}
		if !c.Decided {
			t.Errorf("%s ppm=%d: no decision after GST", c.Protocol, c.PPM)
		}
		for _, p := range c.Problems {
			t.Errorf("%s ppm=%d: %s", c.Protocol, c.PPM, p)
		}
	}
	if !rep.InModelClean() {
		t.Error("InModelClean() = false")
	}
}

// TestDriftScenariosValid: every drift cell passes Validate — the same
// check Run enforces, asserted directly so an axis edit that breaks it
// fails here with the descriptive error.
func TestDriftScenariosValid(t *testing.T) {
	for _, p := range harness.WANProtocols {
		for _, ppm := range driftPPMAxis {
			if err := driftScenario(p, 1, ppm, 1).Validate(); err != nil {
				t.Errorf("drift %s ppm=%d: %v", p, ppm, err)
			}
		}
	}
}
