package crypto

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"lumiere/internal/types"
)

func suites(t *testing.T, n int) map[string]Suite {
	t.Helper()
	return map[string]Suite{
		"sim":     NewSimSuite(n, 7),
		"ed25519": NewEd25519Suite(n, 7),
	}
}

func TestSignVerify(t *testing.T) {
	for name, s := range suites(t, 4) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello world")
			sig := s.SignerFor(2).Sign(data)
			if sig.Signer != 2 {
				t.Fatalf("signer = %v", sig.Signer)
			}
			if err := s.Verify(data, sig); err != nil {
				t.Fatalf("verify: %v", err)
			}
			if err := s.Verify([]byte("other"), sig); err == nil {
				t.Fatal("verified wrong data")
			}
			forged := Signature{Signer: 1, Bytes: sig.Bytes}
			if err := s.Verify(data, forged); err == nil {
				t.Fatal("verified forged signer")
			}
			if err := s.Verify(data, Signature{Signer: 99, Bytes: sig.Bytes}); err == nil {
				t.Fatal("verified unknown signer")
			}
		})
	}
}

func TestAggregate(t *testing.T) {
	for name, s := range suites(t, 7) {
		t.Run(name, func(t *testing.T) {
			data := []byte("statement")
			var sigs []Signature
			for i := 0; i < 5; i++ {
				sigs = append(sigs, s.SignerFor(types.NodeID(i)).Sign(data))
			}
			agg, err := s.Aggregate(data, sigs)
			if err != nil {
				t.Fatalf("aggregate: %v", err)
			}
			if agg.Count() != 5 {
				t.Fatalf("count = %d", agg.Count())
			}
			if err := s.VerifyAggregate(data, agg, 5); err != nil {
				t.Fatalf("verify agg: %v", err)
			}
			if err := s.VerifyAggregate(data, agg, 6); err == nil {
				t.Fatal("threshold not enforced")
			}
			if err := s.VerifyAggregate([]byte("x"), agg, 5); err == nil {
				t.Fatal("verified agg over wrong data")
			}
			// Duplicate signers rejected.
			if _, err := s.Aggregate(data, append(sigs, sigs[0])); err == nil {
				t.Fatal("duplicate signer accepted")
			}
			// Truncation keeps validity at the lower threshold.
			tc := agg.Truncate(3)
			if err := s.VerifyAggregate(data, tc, 3); err != nil {
				t.Fatalf("truncated agg: %v", err)
			}
		})
	}
}

func TestAggregateHasAndClone(t *testing.T) {
	s := NewSimSuite(5, 1)
	data := []byte("d")
	sigs := []Signature{s.SignerFor(3).Sign(data), s.SignerFor(1).Sign(data)}
	agg, err := s.Aggregate(data, sigs)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Has(1) || !agg.Has(3) || agg.Has(2) {
		t.Fatalf("Has wrong: %v", agg.Signers)
	}
	cl := agg.Clone()
	cl.Bytes[0][0] ^= 0xff
	if bytes.Equal(cl.Bytes[0], agg.Bytes[0]) {
		t.Fatal("clone aliases original")
	}
}

func TestAggregateTamperedComponent(t *testing.T) {
	for name, s := range suites(t, 4) {
		t.Run(name, func(t *testing.T) {
			data := []byte("d")
			sigs := []Signature{s.SignerFor(0).Sign(data), s.SignerFor(1).Sign(data)}
			agg, err := s.Aggregate(data, sigs)
			if err != nil {
				t.Fatal(err)
			}
			agg.Bytes[1] = append([]byte(nil), agg.Bytes[1]...)
			agg.Bytes[1][0] ^= 1
			if err := s.VerifyAggregate(data, agg, 2); err == nil {
				t.Fatal("tampered aggregate accepted")
			}
		})
	}
}

func TestDeterministicKeys(t *testing.T) {
	a := NewEd25519Suite(4, 42)
	b := NewEd25519Suite(4, 42)
	data := []byte("same keys")
	sa := a.SignerFor(0).Sign(data)
	if err := b.Verify(data, sa); err != nil {
		t.Fatalf("seeded suites disagree: %v", err)
	}
	c := NewEd25519Suite(4, 43)
	if err := c.Verify(data, sa); err == nil {
		t.Fatal("different seeds produced same keys")
	}
}

func TestStatementEncoding(t *testing.T) {
	a := Statement("dom", 5, []byte{1, 2})
	b := Statement("dom", 5, []byte{1, 2})
	if !bytes.Equal(a, b) {
		t.Fatal("statement not deterministic")
	}
	if bytes.Equal(Statement("dom", 5, nil), Statement("dom", 6, nil)) {
		t.Fatal("views collide")
	}
	if bytes.Equal(Statement("a", 5, nil), Statement("b", 5, nil)) {
		t.Fatal("domains collide")
	}
}

func TestStatementInjectiveQuick(t *testing.T) {
	// Property: distinct (domain, view) pairs yield distinct statements
	// when the domain contains no NUL byte (the separator).
	f := func(v1, v2 uint32) bool {
		a := Statement("x", types.View(v1), nil)
		b := Statement("x", types.View(v2), nil)
		return (v1 == v2) == bytes.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimSuiteSignerPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown signer")
		}
	}()
	NewSimSuite(3, 1).SignerFor(9)
}

// TestSimSuiteResetEquivalence pins the arena contract for the crypto
// layer: a reset suite must produce byte-identical signatures to a
// freshly constructed one, and signatures handed out before the reset
// must keep verifying under a suite re-keyed the same way (the arena
// re-keys per cell with the cell's seed).
func TestSimSuiteResetEquivalence(t *testing.T) {
	data := []byte("statement")
	dirty := NewSimSuite(4, 1)
	oldSig := dirty.SignerFor(2).Sign(data)

	dirty.Reset(7, 99)
	fresh := NewSimSuite(7, 99)
	if dirty.N() != 7 {
		t.Fatalf("n = %d after reset", dirty.N())
	}
	for i := 0; i < 7; i++ {
		a := dirty.SignerFor(types.NodeID(i)).Sign(data)
		b := fresh.SignerFor(types.NodeID(i)).Sign(data)
		if !bytes.Equal(a.Bytes, b.Bytes) {
			t.Fatalf("node %d: reset suite signs differently", i)
		}
		if err := dirty.Verify(data, b); err != nil {
			t.Fatalf("cross-verify after reset: %v", err)
		}
	}
	// The old suite's signature must no longer verify (different keys)
	// but must not have been clobbered: its bytes still verify under an
	// identically keyed fresh suite.
	if err := dirty.Verify(data, oldSig); err == nil {
		t.Fatal("pre-reset signature verifies under new keys")
	}
	if err := NewSimSuite(4, 1).Verify(data, oldSig); err != nil {
		t.Fatalf("pre-reset signature bytes corrupted: %v", err)
	}
}

// TestSimSuiteSignatureStability verifies the chunked signature arena
// never moves bytes already handed out, across block boundaries and
// resets.
func TestSimSuiteSignatureStability(t *testing.T) {
	s := NewSimSuite(2, 5)
	data := make([]byte, 8)
	var sigs []Signature
	var want [][]byte
	for i := 0; i < 3000; i++ { // crosses the 1024-signature block size
		data[0] = byte(i)
		data[1] = byte(i >> 8)
		sig := s.SignerFor(types.NodeID(i % 2)).Sign(data)
		sigs = append(sigs, sig)
		want = append(want, append([]byte(nil), sig.Bytes...))
	}
	s.Reset(2, 5)
	for i := 0; i < 100; i++ {
		s.SignerFor(0).Sign(data)
	}
	for i, sig := range sigs {
		if !bytes.Equal(sig.Bytes, want[i]) {
			t.Fatalf("signature %d mutated after later signing", i)
		}
	}
}

// TestSimSuiteSteadyStateAllocs gates the signing hot path: with the
// per-node HMAC states warm, Sign must stay at ~1/1024 allocations per
// op (the amortized output block) and Verify at zero.
func TestSimSuiteSteadyStateAllocs(t *testing.T) {
	s := NewSimSuite(4, 1)
	data := []byte("warm statement")
	sig := s.SignerFor(1).Sign(data)
	if err := s.Verify(data, sig); err != nil {
		t.Fatal(err)
	}
	signer := s.SignerFor(1) // engines hold their Signer for the run
	signAllocs := testing.AllocsPerRun(2000, func() {
		signer.Sign(data)
	})
	if signAllocs > 0.01 {
		t.Fatalf("Sign allocates %.3f/op in steady state", signAllocs)
	}
	verifyAllocs := testing.AllocsPerRun(1000, func() {
		if err := s.Verify(data, sig); err != nil {
			t.Fatal(err)
		}
	})
	if verifyAllocs != 0 {
		t.Fatalf("Verify allocates %.3f/op in steady state", verifyAllocs)
	}
	// Certificates: assembly allocates the signer list and one array for
	// the component list plus the seal's private copy of it; re-verifying
	// a sealed certificate allocates nothing.
	sigs := []Signature{s.SignerFor(2).Sign(data), sig, s.SignerFor(0).Sign(data)}
	var agg Aggregate
	aggAllocs := testing.AllocsPerRun(1000, func() {
		var err error
		if agg, err = s.Aggregate(data, sigs); err != nil {
			t.Fatal(err)
		}
	})
	if aggAllocs > 2 {
		t.Fatalf("Aggregate allocates %.3f/op in steady state, want ≤ 2", aggAllocs)
	}
	hitAllocs := testing.AllocsPerRun(1000, func() {
		if err := s.VerifyAggregate(data, agg, 3); err != nil {
			t.Fatal(err)
		}
	})
	if hitAllocs != 0 {
		t.Fatalf("VerifyAggregate of a sealed certificate allocates %.3f/op", hitAllocs)
	}
}

// TestVerifiedAggregateMemo pins the SimSuite seal semantics at a small
// and a large n (one path at every size): a sealed certificate hits, but
// whatever was swapped, re-bound, re-sliced, re-assembled or outlived its
// keys falls through to the full check and is rejected.
func TestVerifiedAggregateMemo(t *testing.T) {
	flipped := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[0] ^= 1
		return c
	}
	for _, n := range []int{4, 64} {
		q := n - (n-1)/3
		data, other := Statement("memo", 7, nil), Statement("memo", 8, nil)
		// Each case gets a fresh suite and sealed certificate and returns a
		// verification that must fail.
		cases := map[string]func(s *SimSuite, agg Aggregate) error{
			"slot replaced by a flipped copy": func(s *SimSuite, agg Aggregate) error {
				agg.Bytes[q-1] = flipped(agg.Bytes[q-1]) // same backing arrays, same key
				return s.VerifyAggregate(data, agg, q)
			},
			"slots swapped": func(s *SimSuite, agg Aggregate) error {
				agg.Bytes[0], agg.Bytes[1] = agg.Bytes[1], agg.Bytes[0]
				return s.VerifyAggregate(data, agg, q)
			},
			"re-bound statement": func(s *SimSuite, agg Aggregate) error {
				return s.VerifyAggregate(other, agg, q)
			},
			"raised threshold": func(s *SimSuite, agg Aggregate) error {
				return s.VerifyAggregate(data, agg, q+1)
			},
			"Truncate alias below threshold": func(s *SimSuite, agg Aggregate) error {
				return s.VerifyAggregate(data, agg.Truncate(q-1), q)
			},
			"more components than signers": func(s *SimSuite, agg Aggregate) error {
				short := agg.Truncate(q - 1)
				if err := s.VerifyAggregate(data, short, q-1); err != nil { // seals the alias
					t.Fatalf("truncated certificate rejected: %v", err)
				}
				return s.VerifyAggregate(data, Aggregate{Signers: short.Signers, Bytes: agg.Bytes}, q-1)
			},
			"fewer components than signers": func(s *SimSuite, agg Aggregate) error {
				return s.VerifyAggregate(data, Aggregate{Signers: agg.Signers, Bytes: agg.Bytes[:q-1]}, q-1)
			},
			"re-assembly with one forged component": func(s *SimSuite, agg Aggregate) error {
				re := agg.Clone()
				re.Bytes[q-1][0] ^= 1
				return s.VerifyAggregate(data, re, q)
			},
			"stale certificate after Reset": func(s *SimSuite, agg Aggregate) error {
				s.Reset(n, 2) // drops the seals and re-keys
				return s.VerifyAggregate(data, agg, q)
			},
		}
		for name, attack := range cases {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				s := NewSimSuite(n, 1)
				sigs := make([]Signature, q)
				for i := range sigs {
					sigs[i] = s.SignerFor(types.NodeID(q - 1 - i)).Sign(data)
				}
				agg, err := s.Aggregate(data, sigs)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ { // sealed at construction: hits
					if err := s.VerifyAggregate(data, agg, q); err != nil {
						t.Fatalf("round %d: %v", i, err)
					}
				}
				if err := s.VerifyAggregate(data, agg.Clone(), q); err != nil {
					t.Fatalf("honest re-assembly rejected: %v", err)
				}
				if attack(s, agg) == nil {
					t.Fatal("accepted")
				}
			})
		}
	}
}
