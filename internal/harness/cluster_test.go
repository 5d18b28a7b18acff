package harness

import (
	"testing"
	"time"

	"lumiere/internal/network"
	"lumiere/internal/workload"
)

// TestClusterExperimentSmoke boots a small loopback cluster over real
// sockets and checks the wall-clock measurement plumbing end to end:
// decisions land, words are counted, and per-node stats come back.
func TestClusterExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	res, err := RunCluster(ClusterExperiment{F: 1, Seed: 7, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 4 || res.F != 1 {
		t.Fatalf("cluster shape n=%d f=%d, want 4/1", res.N, res.F)
	}
	if !res.Decided || res.Decisions == 0 {
		t.Fatal("no decisions on a healthy loopback cluster")
	}
	if res.SyncLatency <= 0 || res.SyncLatency > res.Elapsed {
		t.Fatalf("implausible sync latency %v (elapsed %v)", res.SyncLatency, res.Elapsed)
	}
	if res.Words <= 0 || res.Sends <= 0 || res.WordsPerDecision <= 0 {
		t.Fatalf("words accounting missing: words=%d sends=%d w/dec=%v",
			res.Words, res.Sends, res.WordsPerDecision)
	}
	if len(res.Stats) != res.N || len(res.Collectors) != res.N {
		t.Fatalf("per-node snapshots: stats=%d collectors=%d, want %d",
			len(res.Stats), len(res.Collectors), res.N)
	}
}

// TestClusterExperimentSMR runs the SMR workload on the loopback
// cluster and checks commands commit.
func TestClusterExperimentSMR(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	res, err := RunCluster(ClusterExperiment{
		F: 1, Seed: 11, SMR: true, Rate: 50, Duration: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("workload injected no commands")
	}
	if res.Committed == 0 {
		t.Fatal("no node committed any block")
	}
}

// TestClusterInjectorDeliversRate: the injector is open-loop on absolute
// due times, so it never injects more than the schedule has due, and it
// has no period to underflow at rates above 10⁹/s. How much of the
// schedule a wall-clock run achieves depends on the machine's load, so
// the share is reported, not asserted (the exact-rate contract is the
// pacer's, pinned by TestInjectorExactRate).
func TestClusterInjectorDeliversRate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	e := ClusterExperiment{F: 1, Seed: 11, SMR: true, Rate: 500, Duration: 2 * time.Second}
	res, err := RunCluster(e)
	if err != nil {
		t.Fatal(err)
	}
	due := int(workload.DueBy(int64(e.Rate), int64(e.Duration)))
	if res.Injected <= 0 || res.Injected > due {
		t.Fatalf("injected %d commands, want 1..%d (the schedule's due count)", res.Injected, due)
	}
	t.Logf("injected %d of %d due commands (%.1f%%)", res.Injected, due, 100*float64(res.Injected)/float64(due))
	if res.Committed == 0 {
		t.Fatal("no node committed any block")
	}
	e.Rate, e.Duration = 2_000_000_000, 20*time.Millisecond
	if res, err = RunCluster(e); err != nil {
		t.Fatalf("rate above 1e9/s: %v", err)
	} else if res.Injected == 0 {
		t.Fatal("rate above 1e9/s: injected no commands")
	}
}

// TestClusterChaosLoss runs the loopback cluster under pre-GST loss and
// checks the cluster still decides after GST — the socket-level clamp
// releasing "lost" messages at GST+Δ.
func TestClusterChaosLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	t.Parallel()
	res, err := RunCluster(ClusterExperiment{
		F: 1, Seed: 13, Duration: 3 * time.Second,
		Loss: 0.3, LossUntil: 800 * time.Millisecond, GST: 800 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatal("cluster failed to decide after GST despite the clamp")
	}
	if res.SyncLatency <= 0 {
		t.Fatalf("sync latency %v, want > 0", res.SyncLatency)
	}
}

// TestClusterExperimentValidation checks the omission-budget guard:
// MaxSenders beyond F violates the §2 model and must be rejected.
func TestClusterExperimentValidation(t *testing.T) {
	_, err := RunCluster(ClusterExperiment{
		F: 1, Duration: time.Second,
		OmissionBudget: network.OmissionBudget{MaxMessages: 10, MaxSenders: 2},
	})
	if err == nil {
		t.Fatal("RunCluster accepted an omission budget with MaxSenders > f")
	}
}
