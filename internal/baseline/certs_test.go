package baseline

import (
	"testing"

	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/types"
)

// TestCertsPoolRecycling: a view's vote set materializes on its first
// vote and reading a view materializes none; Forget returns the pruned
// sets to the pool holding no signature, and a set taken back from the
// pool starts empty.
func TestCertsPoolRecycling(t *testing.T) {
	const n = 4
	suite := crypto.NewSimSuite(n, 1)
	c := NewCerts(suite, n)
	vote := func(from types.NodeID, v types.View) int {
		stmt := msg.EpochViewStatement(v)
		return c.Add(from, v, suite.SignerFor(from).Sign(stmt), stmt, 1)
	}
	vote(1, 10)
	vote(2, 11)
	vote(3, 12)
	if c.Live() != 3 {
		t.Fatalf("live = %d, want 3", c.Live())
	}
	if c.Stored(13) != 0 || c.Live() != 3 {
		t.Fatal("Stored materialized a view")
	}
	pruned, _ := c.votes.At(11)
	c.Forget(12)
	if c.Live() != 1 || c.Stored(10) != 0 || c.Stored(11) != 0 || c.Stored(12) != 1 {
		t.Fatalf("after Forget(12): live %d, stored %d/%d/%d; want 1, 0/0/1",
			c.Live(), c.Stored(10), c.Stored(11), c.Stored(12))
	}
	if len(c.free) != 2 || c.free[1] != pruned {
		t.Fatalf("pool holds %d sets, want the 2 pruned ones in view order", len(c.free))
	}
	for _, vs := range c.free {
		if len(vs.Sigs()) != 0 {
			t.Fatal("a pooled set still stores a signature")
		}
	}
	// The last set pruned is the next one taken, and it counts afresh:
	// signer 2's vote for view 11 is forgotten.
	if got := vote(2, 20); got != 1 {
		t.Fatalf("first vote for view 20 counts %d, want 1", got)
	}
	if reused, _ := c.votes.At(20); reused != pruned || len(c.free) != 1 {
		t.Fatal("view 20 did not take its set from the pool")
	}
}
