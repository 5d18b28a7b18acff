package harness

import (
	"fmt"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/network"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// TestSMRSafetyUnderEquivocation: f Byzantine leaders propose conflicting
// blocks to different halves of the cluster; HotStuff's quorum
// intersection must prevent any divergent commits, and liveness must
// survive (equivocating views waste at most their slots).
func TestSMRSafetyUnderEquivocation(t *testing.T) {
	t.Parallel()
	for _, p := range []Protocol{ProtoLumiere, ProtoFever} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			corr := make([]adversary.Corruption, 2)
			for i := range corr {
				corr[i] = adversary.Corruption{Node: types.NodeID(i), Behavior: adversary.BehaviorEquivocating}
			}
			res := Run(Scenario{
				Protocol:        p,
				F:               2,
				Delta:           testDelta,
				Delay:           network.Uniform{Min: time.Millisecond, Max: testDelta / 2},
				Corruptions:     corr,
				Duration:        90 * time.Second,
				Seed:            8,
				SMR:             true,
				NewStateMachine: func() statemachine.StateMachine { return statemachine.NewBank() },
				Workload: &workload.Config{Rate: 100, Command: func(b []byte, i int64) []byte {
					if i < 4 {
						return fmt.Appendf(b, "OPEN a%d 100", i)
					}
					return fmt.Appendf(b, "XFER a%d a%d 1", i%4, (i+1)%4)
				}},
			})
			committed := requireConsistentCommits(t, res)
			if committed < 20 {
				t.Fatalf("only %d commits under equivocation", committed)
			}
			// No equivocated command may execute on one replica but
			// not another with the same commit count; the bank total
			// must stay conserved everywhere.
			for i, sm := range res.SMs {
				if sm == nil {
					continue
				}
				bank := sm.(*statemachine.Bank)
				if tot := bank.TotalBalance(); tot%100 != 0 || tot > 400 {
					t.Fatalf("replica %d: money not conserved under equivocation: %d", i, tot)
				}
			}
		})
	}
}

// TestEquivocatingProposalsNeverBothCertify inspects the decision stream:
// at most one QC exists per view even when its leader equivocates.
func TestEquivocatingProposalsNeverBothCertify(t *testing.T) {
	t.Parallel()
	res := Run(Scenario{
		Protocol:    ProtoLumiere,
		F:           1,
		Delta:       testDelta,
		DeltaActual: testDelta / 10,
		Corruptions: []adversary.Corruption{{Node: 0, Behavior: adversary.BehaviorEquivocating}},
		Duration:    60 * time.Second,
		Seed:        8,
		SMR:         true,
	})
	// Every honest replica commits, and consistently.
	logs := 0
	for i, l := range res.Committed {
		if l == nil {
			continue
		}
		logs++
		if len(l) == 0 {
			t.Fatalf("replica %d committed nothing", i)
		}
	}
	requireLogCount(t, res, logs)
	requireConsistentCommits(t, res)
}
