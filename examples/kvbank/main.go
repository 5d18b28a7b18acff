// Kvbank runs a replicated bank on chained HotStuff under Lumiere with
// the maximum number of crashed replicas, random network jitter, and a
// transfer workload — then audits every replica: the committed ledgers
// must be identical and money must be conserved.
package main

import (
	"fmt"
	"os"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/hotstuff"
	"lumiere/internal/network"
	"lumiere/internal/statemachine"
)

const (
	accounts  = 10
	seedMoney = 1_000
	delta     = 100 * time.Millisecond // Δ, the known delay bound
)

func main() {
	const f = 2 // n = 7, and we crash f of them
	res := harness.Run(harness.Scenario{
		Protocol:        harness.ProtoLumiere,
		F:               f,
		Delta:           delta,
		Delay:           network.Uniform{Min: time.Millisecond, Max: 40 * time.Millisecond},
		Corruptions:     adversary.CrashFirst(f),
		Duration:        60 * time.Second,
		Seed:            11,
		SMR:             true,
		NewStateMachine: func() statemachine.StateMachine { return statemachine.NewBank() },
		WorkloadRate:    200,
		WorkloadCommand: func(i int) []byte {
			if i < accounts {
				return []byte(fmt.Sprintf("OPEN acct%d %d", i, seedMoney))
			}
			return []byte(fmt.Sprintf("XFER acct%d acct%d %d", i%accounts, (i+7)%accounts, 1+i%13))
		},
	})

	fmt.Printf("cluster: n=%d with %d crashed replicas; %d commands injected\n", res.Cfg.N, f, res.Injected)

	var refLog []hotstuff.Hash
	var refSummary string
	alive := 0
	for i, e := range res.Engines {
		hs, ok := e.(*hotstuff.Core)
		if !ok || hs == nil {
			continue
		}
		alive++
		bank := res.SMs[i].(*statemachine.Bank)
		log := hs.CommittedHashes()
		fmt.Printf("replica %d: committed %d blocks, total balance %d\n", i, len(log), bank.TotalBalance())
		if bank.TotalBalance() != accounts*seedMoney {
			fmt.Printf("  (some OPENs still in flight — total is a multiple of %d: %v)\n",
				seedMoney, bank.TotalBalance()%seedMoney == 0)
		}
		if refLog == nil {
			refLog, refSummary = log, bank.Summary()
			continue
		}
		n := len(refLog)
		if len(log) < n {
			n = len(log)
		}
		for j := 0; j < n; j++ {
			if refLog[j] != log[j] {
				fmt.Printf("CONSISTENCY VIOLATION at block %d on replica %d\n", j, i)
				os.Exit(1)
			}
		}
		if len(log) == len(refLog) && bank.Summary() != refSummary {
			fmt.Printf("STATE DIVERGENCE on replica %d\n", i)
			os.Exit(1)
		}
	}
	fmt.Printf("audit passed: %d live replicas agree on the ledger, money conserved\n", alive)
}
