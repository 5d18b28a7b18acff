package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/replica"
	"lumiere/internal/sim"
	"lumiere/internal/stack"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
)

// countingSuite counts one node's VerifyAggregate calls per statement.
type countingSuite struct {
	crypto.Suite
	node  types.NodeID
	calls map[string]int // "node|statement" → calls, shared by the cell's nodes
}

func (c countingSuite) VerifyAggregate(data []byte, agg crypto.Aggregate, threshold int) error {
	c.calls[fmt.Sprintf("%d|%s", c.node, data)]++
	return c.Suite.VerifyAggregate(data, agg, threshold)
}

// countedCell runs a fault-free cell assembled by stack.Build — the
// wiring every runtime uses — with a countingSuite per node, and returns
// the call counts and the number of decisions.
func countedCell(t *testing.T, s Scenario) (map[string]int, int) {
	t.Helper()
	s = s.withDefaults()
	cfg := types.Config{N: s.N, F: s.F, Delta: s.Delta, X: types.DefaultX}
	sched := sim.New(s.Seed)
	net := network.NewNet(sched, cfg, 0, network.Fixed{D: s.DeltaActual})
	collector := metrics.NewCollector(net.Honest)
	net.Observe(collector)
	suite := crypto.NewSimSuite(cfg.N, s.Seed+1)
	calls := make(map[string]int)
	replicas := make([]*replica.Replica, cfg.N)
	for i := range replicas {
		id := types.NodeID(i)
		r := replica.New(id, nil, nil)
		replicas[i] = r
		ep := net.Attach(id, r)
		var sm statemachine.StateMachine
		if s.SMR {
			sm = statemachine.NewKV()
		}
		sched.At(0, func() {
			r.PM, r.Core = stack.Build(stack.Node{
				Protocol: s.Protocol, Seed: s.Seed, SMR: s.SMR, Base: cfg, Endpoint: ep, Runtime: sched, Clock: clock.New(sched, 0),
				Suite: countingSuite{Suite: suite, node: id, calls: calls}, Collector: collector, SM: sm,
			})
			r.Start()
		})
	}
	if s.SMR {
		for i := 0; i < 400; i++ { // a command every 5 ms, at every replica
			req := &msg.Request{ID: uint64(i + 1), Payload: []byte(fmt.Sprintf("SET key%d value%d", i%64, i))}
			sched.At(types.Time(0).Add(time.Duration(i)*5*time.Millisecond), func() {
				for _, r := range replicas {
					r.Core.Handle(r.ID, req)
				}
			})
		}
	}
	sched.RunUntil(types.Time(0).Add(s.Duration))
	return calls, collector.DecisionCount()
}

// TestEachCertificateVerifiedOnce: the engine is the only verifier of QCs
// and every certificate kind is checked where it is first needed, so each
// node calls VerifyAggregate exactly once per statement it sees certified.
func TestEachCertificateVerifiedOnce(t *testing.T) {
	voteOnly := func(key string) bool { return strings.Contains(key, "|"+msg.DomainVote) }
	for _, tc := range []struct {
		name string
		s    Scenario
		keep func(key string) bool // nil: every statement
	}{
		{"lumiere+viewcore n=7", Scenario{Protocol: ProtoLumiere, F: 2, Seed: 5, Duration: 20 * time.Second}, nil},
		{"lumiere+hotstuff n=4", Scenario{Protocol: ProtoLumiere, F: 1, Seed: 5, Duration: 10 * time.Second, SMR: true}, nil},
		{"lp22+viewcore n=7, QCs", Scenario{Protocol: ProtoLP22, F: 2, Seed: 5, Duration: 20 * time.Second}, voteOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls, decisions := countedCell(t, tc.s)
			checked := 0
			for key, n := range calls {
				if tc.keep != nil && !tc.keep(key) {
					continue
				}
				checked++
				if n != 1 {
					t.Errorf("%q verified %d times", key, n)
				}
			}
			n := tc.s.withDefaults().N
			if decisions < 20 || checked < decisions*(n-1) {
				t.Fatalf("%d decisions, %d (node, statement) pairs checked: the cell did not run", decisions, checked)
			}
		})
	}
}
