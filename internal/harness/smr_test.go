package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/hotstuff"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// wantLogs returns how many commit logs res must hold: one per replica
// that ran a plain HotStuff engine, which is every replica but the
// crashed ones and the equivocators (whose engine is wrapped).
func wantLogs(res *Result) int {
	n := res.Cfg.N
	for _, c := range res.Scenario.Corruptions {
		if c.Behavior == adversary.BehaviorCrash || c.Behavior == adversary.BehaviorEquivocating {
			n--
		}
	}
	return n
}

// requireLogCount fails unless a check went over every commit log res
// must hold, so that no check passes on missing logs.
func requireLogCount(t *testing.T, res *Result, compared int) {
	t.Helper()
	if want := wantLogs(res); compared != want {
		t.Fatalf("compared %d commit logs, want %d", compared, want)
	}
}

// requireConsistentCommits asserts that every pair of honest replicas'
// committed block sequences are prefix-consistent (SMR safety).
func requireConsistentCommits(t *testing.T, res *Result) int {
	t.Helper()
	var logs [][]hotstuff.Hash
	for _, l := range res.Committed {
		if l != nil {
			logs = append(logs, l)
		}
	}
	requireLogCount(t, res, len(logs))
	minLen := len(logs[0])
	for _, l := range logs {
		if len(l) < minLen {
			minLen = len(l)
		}
	}
	for i := 1; i < len(logs); i++ {
		for j := 0; j < minLen; j++ {
			if logs[i][j] != logs[0][j] {
				t.Fatalf("commit logs diverge at index %d between replicas 0 and %d", j, i)
			}
		}
	}
	return minLen
}

// frameLog is a delay policy that remembers, by block hash, the encoded
// block of every proposal and block response it is asked to delay — the
// very slices the receiving replicas decode, and so the bytes their blocks
// alias for the rest of the run (hotstuff.Block's contract).
type frameLog struct {
	network.DelayPolicy
	frames map[hotstuff.Hash][]byte
}

func (l *frameLog) Delay(from, to types.NodeID, m msg.Message, at types.Time, rng *rand.Rand) time.Duration {
	switch mm := m.(type) {
	case *msg.Proposal:
		l.frames[mm.Hash] = mm.Block
	case *msg.BlockResp:
		if mm.Cert != nil {
			l.frames[mm.Cert.BlockHash] = mm.Block
		}
	}
	return l.DelayPolicy.Delay(from, to, m, at, rng)
}

// requireSealedBlocksIntact walks every replica's committed chain and
// asserts that nobody modified a sealed block during the run: the frame
// each committed block arrived in still hashes to the committed hash, and
// the fields it decodes to, encoded again into a fresh buffer, do too.
func requireSealedBlocksIntact(t *testing.T, res *Result, log *frameLog) {
	t.Helper()
	checked := map[hotstuff.Hash]bool{}
	logs := 0
	for i, l := range res.Committed {
		if l == nil {
			continue
		}
		logs++
		for j, h := range l {
			if checked[h] {
				continue
			}
			checked[h] = true
			frame, ok := log.frames[h]
			if !ok {
				t.Fatalf("replica %d committed block %d, which never crossed the network", i, j)
			}
			if sha256.Sum256(frame) != h {
				t.Fatalf("replica %d, block %d: the frame it was decoded from was modified", i, j)
			}
			b, err := hotstuff.DecodeBlock(frame)
			if err != nil {
				t.Fatalf("replica %d, block %d: %v", i, j, err)
			}
			again := &hotstuff.Block{View: b.View, Parent: b.Parent, Cmds: b.Cmds}
			if again.HashOf() != h || !bytes.Equal(again.Encode(), frame) {
				t.Fatalf("replica %d, block %d: fields do not encode to the committed hash", i, j)
			}
		}
	}
	requireLogCount(t, res, logs)
	if len(checked) == 0 {
		t.Fatal("no committed block checked")
	}
}

// TestSMRCommitsUnderLumiere: end-to-end chained HotStuff driven by
// Lumiere commits a workload consistently.
func TestSMRCommitsUnderLumiere(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	res := Run(Scenario{
		Protocol:    ProtoLumiere,
		F:           2,
		Delta:       testDelta,
		DeltaActual: testDelta / 10,
		Duration:    60 * time.Second,
		Seed:        2,
		SMR:         true,
		Workload:    &workload.Config{Rate: 200},
	})
	committed := requireConsistentCommits(t, res)
	if committed < 100 {
		t.Fatalf("committed only %d blocks", committed)
	}
	// All replicas converge on the same state: replicas that committed
	// the same number of blocks hold equal KV summaries (a replica with
	// more or fewer blocks may differ by in-flight commits).
	groups := map[int][]int{} // committed blocks -> replicas
	for i, sm := range res.SMs {
		if sm != nil {
			groups[len(res.Committed[i])] = append(groups[len(res.Committed[i])], i)
		}
	}
	compared := false
	for blocks, reps := range groups {
		want := res.SMs[reps[0]].(*statemachine.KV).Summary()
		for _, i := range reps[1:] {
			if res.SMs[i].(*statemachine.KV).Summary() != want {
				t.Fatalf("replicas %d and %d both committed %d blocks but hold different states", reps[0], i, blocks)
			}
			compared = true
		}
	}
	if !compared {
		t.Fatalf("no two replicas committed the same number of blocks (%v): no state compared", groups)
	}
	if res.Injected == 0 {
		t.Fatal("no workload injected")
	}
}

// TestSMRBankConservationUnderFaults: the bank's total balance is
// conserved on every replica, under crashes and random delays, for every
// pacemaker.
func TestSMRBankConservationUnderFaults(t *testing.T) {
	t.Parallel()
	const accounts = 8
	const seedMoney = 1000
	for _, p := range []Protocol{ProtoLumiere, ProtoFever, ProtoLP22} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res := Run(Scenario{
				Protocol:        p,
				F:               2,
				Delta:           testDelta,
				Delay:           network.Uniform{Min: time.Millisecond, Max: testDelta / 2},
				Corruptions:     adversary.CrashFirst(2),
				Duration:        90 * time.Second,
				Seed:            5,
				SMR:             true,
				NewStateMachine: func() statemachine.StateMachine { return statemachine.NewBank() },
				Workload: &workload.Config{Rate: 100, Command: func(b []byte, i int64) []byte {
					if i < accounts {
						return fmt.Appendf(b, "OPEN acct%d %d", i, seedMoney)
					}
					from := i % accounts
					to := (i + 3) % accounts
					return fmt.Appendf(b, "XFER acct%d acct%d %d", from, to, 1+i%7)
				}},
			})
			committed := requireConsistentCommits(t, res)
			if committed < 50 {
				t.Fatalf("committed only %d blocks", committed)
			}
			for i, sm := range res.SMs {
				if sm == nil {
					continue
				}
				bank := sm.(*statemachine.Bank)
				total := bank.TotalBalance()
				// Each applied OPEN adds seedMoney; XFERs conserve.
				// Total must be a multiple of seedMoney, at most
				// accounts·seedMoney.
				if total%seedMoney != 0 || total > accounts*seedMoney {
					t.Fatalf("replica %d: money not conserved: total=%d", i, total)
				}
			}
		})
	}
}

// TestSMRThroughputResponsive: with a fast network, committed blocks per
// second track network speed (responsiveness carries through the stack).
func TestSMRThroughputResponsive(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	res := Run(Scenario{
		Protocol:    ProtoLumiere,
		F:           1,
		Delta:       testDelta,
		DeltaActual: time.Millisecond,
		Duration:    30 * time.Second,
		Seed:        3,
		SMR:         true,
		Workload:    &workload.Config{Rate: 500},
	})
	committed := requireConsistentCommits(t, res)
	// A view pair completes in ~3δ = 3ms; 30s should yield thousands
	// of committed blocks.
	if committed < 2000 {
		t.Fatalf("committed %d blocks in 30s at δ=1ms", committed)
	}
	// Commands actually execute.
	applied := false
	for _, sm := range res.SMs {
		if sm != nil && sm.(*statemachine.KV).Len() > 0 {
			applied = true
		}
	}
	if !applied {
		t.Fatal("no commands applied")
	}
}

// TestSMRChurnCatchUp: a replica that crashes and recovers (twice) under
// an active workload loses every message sent during its down windows —
// the simulated network does not replay. Convergence therefore depends
// on the BlockFetch/BlockResp catch-up path: the revived replica must
// re-fetch the certified blocks it missed, execute them in order, and
// end with the same state as replicas that never went down.
func TestSMRChurnCatchUp(t *testing.T) {
	skipInShort(t)
	t.Parallel()
	const churned = 1
	frames := &frameLog{DelayPolicy: network.Fixed{D: testDelta / 10}, frames: map[hotstuff.Hash][]byte{}}
	res := Run(Scenario{
		Protocol: ProtoLumiere,
		F:        1,
		Delta:    testDelta,
		Delay:    frames,
		Duration: 40 * time.Second,
		Seed:     7,
		SMR:      true,
		Corruptions: []adversary.Corruption{adversary.Churn(churned,
			adversary.Downtime{From: 5 * time.Second, To: 8 * time.Second},
			adversary.Downtime{From: 15 * time.Second, To: 18 * time.Second},
		)},
		Workload: &workload.Config{Clients: 10_000, Rate: 200, PayloadPad: 32},
	})
	committed := requireConsistentCommits(t, res)
	if committed < 100 {
		t.Fatalf("committed only %d blocks", committed)
	}
	maxCount, logs := 0, 0
	for _, l := range res.Committed {
		if l != nil {
			logs++
			maxCount = max(maxCount, len(l))
		}
	}
	requireLogCount(t, res, logs)
	// Without catch-up the churned replica stalls at its first crash
	// point (~5s of ~40s of commits); with it, the commit frontier lags
	// the leaders by at most a few in-flight blocks.
	churnedCount := len(res.Committed[churned])
	if churnedCount < maxCount-10 {
		t.Fatalf("churned replica committed %d of %d blocks: catch-up failed", churnedCount, maxCount)
	}
	// Replicas with equal commit counts must agree on state exactly —
	// including the churned one.
	summaries := map[int]string{}
	for i, sm := range res.SMs {
		if sm == nil {
			continue
		}
		n := len(res.Committed[i])
		got := sm.(*statemachine.KV).Summary()
		if prev, ok := summaries[n]; ok && prev != got {
			t.Fatalf("replicas with %d commits disagree on state (replica %d)", n, i)
		}
		summaries[n] = got
	}
	if _, ok := summaries[churnedCount]; !ok {
		t.Fatal("churned replica state not captured")
	}
	requireSealedBlocksIntact(t, res, frames)
}
