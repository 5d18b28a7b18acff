package crypto

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"lumiere/internal/allocgate"
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

// TestSimSuiteSignatureStability verifies the chunked signature blocks
// never move bytes already handed out, across block boundaries.
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
// per-node HMAC states and the signature seal map warm, Sign allocates
// only the amortized output block (1 per 1024 signatures, 0 per op in
// AllocsPerRun's integer average) while the seal map fills and flushes,
// and Verify allocates nothing, sealed or not.
func TestSimSuiteSteadyStateAllocs(t *testing.T) {
	s := NewSimSuite(4, 1)
	data := []byte("warm statement")
	sig := s.SignerFor(1).Sign(data)
	if err := s.Verify(data, sig); err != nil {
		t.Fatal(err)
	}
	signer := s.SignerFor(1) // engines hold their Signer for the run
	// Grow the seal map to its bound before measuring.
	for i := 0; i < maxSigned(4); i++ {
		signer.Sign(data)
	}
	// 2000 signatures flush the seal map (maxSigned(4) = 80) 25 times.
	signAllocs := allocgate.PerRun(t, 2000, func() {
		signer.Sign(data)
	})
	if signAllocs != 0 {
		t.Fatalf("Sign allocates %.3f/op in steady state", signAllocs)
	}
	sig = signer.Sign(data)
	if _, sealed := s.signed[&sig.Bytes[0]]; !sealed {
		t.Fatal("fresh signature not sealed")
	}
	sealedAllocs := allocgate.PerRun(t, 1000, func() {
		if err := s.Verify(data, sig); err != nil {
			t.Fatal(err)
		}
	})
	if sealedAllocs != 0 {
		t.Fatalf("sealed Verify allocates %.3f/op", sealedAllocs)
	}
	unsealed := Signature{Signer: sig.Signer, Bytes: bytes.Clone(sig.Bytes)}
	verifyAllocs := allocgate.PerRun(t, 1000, func() {
		if err := s.Verify(data, unsealed); err != nil {
			t.Fatal(err)
		}
	})
	if verifyAllocs != 0 {
		t.Fatalf("full Verify allocates %.3f/op in steady state", verifyAllocs)
	}
	// Certificates: assembly allocates the signer list and one array for
	// the component list plus the seal's private copy of it; re-verifying
	// a sealed certificate allocates nothing.
	sigs := []Signature{s.SignerFor(2).Sign(data), sig, s.SignerFor(0).Sign(data)}
	var agg Aggregate
	aggAllocs := allocgate.PerRun(t, 1000, func() {
		var err error
		if agg, err = s.Aggregate(data, sigs); err != nil {
			t.Fatal(err)
		}
	})
	if aggAllocs > 2 {
		t.Fatalf("Aggregate allocates %.3f/op in steady state, want ≤ 2", aggAllocs)
	}
	hitAllocs := allocgate.PerRun(t, 1000, func() {
		if err := s.VerifyAggregate(data, agg, 3); err != nil {
			t.Fatal(err)
		}
	})
	if hitAllocs != 0 {
		t.Fatalf("VerifyAggregate of a sealed certificate allocates %.3f/op", hitAllocs)
	}
}

// TestSignedSignatureSeal pins the SimSuite signature seal at a small and
// a large n: a signature the suite made verifies by lookup, but whatever
// was relabelled, re-bound, flipped, re-sliced at either end, made by
// another suite or checked by one falls through to the full check and
// is rejected, and what is honest but unsealed still verifies through the
// full check.
func TestSignedSignatureSeal(t *testing.T) {
	for _, n := range []int{4, 64} {
		byz := types.NodeID(n - 1) // a Byzantine node signs with its own key only
		data, other := Statement("seal", 7, nil), Statement("seal", 8, nil)
		// Each case gets a fresh suite and signature by node 0 and returns
		// a verification that must fail.
		rejected := map[string]func(s *SimSuite, sig Signature) error{
			"relabelled to another honest signer": func(s *SimSuite, sig Signature) error {
				return s.Verify(data, Signature{Signer: 1, Bytes: sig.Bytes})
			},
			"relabelled to the Byzantine signer": func(s *SimSuite, sig Signature) error {
				s.SignerFor(byz).Sign(data) // its own seal exists, for other bytes
				return s.Verify(data, Signature{Signer: byz, Bytes: sig.Bytes})
			},
			"re-bound statement": func(s *SimSuite, sig Signature) error {
				return s.Verify(other, sig)
			},
			"flipped copy": func(s *SimSuite, sig Signature) error {
				c := bytes.Clone(sig.Bytes)
				c[0] ^= 1
				return s.Verify(data, Signature{Signer: sig.Signer, Bytes: c})
			},
			"re-sliced": func(s *SimSuite, sig Signature) error {
				return s.Verify(data, Signature{Signer: sig.Signer, Bytes: sig.Bytes[1:]})
			},
			"re-sliced prefix, same first byte": func(s *SimSuite, sig Signature) error {
				return s.Verify(data, Signature{Signer: sig.Signer, Bytes: sig.Bytes[:len(sig.Bytes)-1]})
			},
			"second suite with other keys": func(s *SimSuite, _ Signature) error {
				return s.Verify(data, NewSimSuite(n, 2).SignerFor(0).Sign(data))
			},
			"verified by a second suite with other keys": func(_ *SimSuite, sig Signature) error {
				return NewSimSuite(n, 2).Verify(data, sig) // holds no seal and other keys
			},
		}
		for name, attack := range rejected {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				s := NewSimSuite(n, 1)
				sig := s.SignerFor(0).Sign(data)
				for i := 0; i < 2; i++ {
					if err := s.Verify(data, sig); err != nil {
						t.Fatalf("round %d: %v", i, err)
					}
				}
				if attack(s, sig) == nil {
					t.Fatal("accepted")
				}
			})
		}
		// Each case returns an honest signature the suite holds no seal
		// for; it must verify through the full check.
		unsealed := map[string]func(s *SimSuite) ([]byte, Signature){
			"honest byte copy": func(s *SimSuite) ([]byte, Signature) {
				sig := s.SignerFor(0).Sign(data)
				return data, Signature{Signer: sig.Signer, Bytes: bytes.Clone(sig.Bytes)}
			},
			"statement longer than 64 bytes": func(s *SimSuite) ([]byte, Signature) {
				long := bytes.Repeat([]byte{7}, 65)
				return long, s.SignerFor(0).Sign(long)
			},
			"flushed by the bound": func(s *SimSuite) ([]byte, Signature) {
				sig := s.SignerFor(0).Sign(data)
				for i := 0; i < maxSigned(n); i++ {
					s.SignerFor(types.NodeID(i % n)).Sign(other)
				}
				return data, sig
			},
		}
		for name, honest := range unsealed {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				s := NewSimSuite(n, 1)
				stmt, sig := honest(s)
				if _, sealed := s.signed[&sig.Bytes[0]]; sealed {
					t.Fatal("signature is sealed")
				}
				if err := s.Verify(stmt, sig); err != nil {
					t.Fatalf("honest signature rejected: %v", err)
				}
			})
		}
	}
}

// TestSignedSignatureSealSkipsHMAC shows that a sealed signature is
// accepted by the lookup, not by an HMAC: once the signer's key is
// overwritten, the sealed signature still verifies, while an unsealed
// copy of the same bytes, which takes the full check, does not.
func TestSignedSignatureSealSkipsHMAC(t *testing.T) {
	s := NewSimSuite(4, 1)
	data := Statement("seal", 7, nil)
	sig := s.SignerFor(2).Sign(data)
	copy(s.keys[2], bytes.Repeat([]byte{0xa5}, len(s.keys[2])))
	s.macs[2] = nil // re-keys from the overwritten key on next use
	if err := s.Verify(data, sig); err != nil {
		t.Fatalf("sealed signature rejected: %v", err)
	}
	if err := s.Verify(data, Signature{Signer: sig.Signer, Bytes: bytes.Clone(sig.Bytes)}); err == nil {
		t.Fatal("unsealed copy verified under the overwritten key")
	}
}

// TestVerifiedAggregateMemo pins the SimSuite seal semantics at a small
// and a large n (one path at every size): a sealed certificate hits, but
// whatever was swapped, re-bound, relabelled, re-sliced, re-assembled or
// checked by another suite falls through to the full check and is
// rejected.
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
			"signer relabelled in place": func(s *SimSuite, agg Aggregate) error {
				agg.Signers[q-1] = types.NodeID(n - 1) // same arrays, still sorted
				return s.VerifyAggregate(data, agg, q)
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
			"verified by a second suite with other keys": func(_ *SimSuite, agg Aggregate) error {
				return NewSimSuite(n, 2).VerifyAggregate(data, agg, q) // holds no seal and other keys
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

// memoized returns a fresh Ed25519Suite at n nodes holding one memoized
// signature by node 0 over data: made by the suite itself ("signed") or
// made by a second suite with the same keys and verified by this one
// ("verified").
func memoized(t *testing.T, n int, origin string, data []byte) (*Ed25519Suite, Signature) {
	t.Helper()
	s := NewEd25519Suite(n, 1)
	var sig Signature
	switch origin {
	case "signed":
		sig = s.SignerFor(0).Sign(data)
	case "verified":
		sig = NewEd25519Suite(n, 1).SignerFor(0).Sign(data)
		if err := s.Verify(data, sig); err != nil {
			t.Fatal(err)
		}
	}
	if k, _ := memoKey(data, sig); !memoHolds(s, k) {
		t.Fatal("signature not memoized")
	}
	return s, sig
}

// flush fills s's memo past its bound with signatures over other
// statements and checks that sig's entry went with the wholesale flush.
func flush(t *testing.T, s *Ed25519Suite, data []byte, sig Signature) {
	t.Helper()
	for i := 0; i < maxSigned(s.N()); i++ {
		s.SignerFor(types.NodeID(i % s.N())).Sign(Statement("fill", types.View(i), nil))
	}
	if k, _ := memoKey(data, sig); memoHolds(s, k) {
		t.Fatal("memo entry survived the flush")
	}
}

// memoHolds reports whether s's memo has an entry under key k.
func memoHolds(s *Ed25519Suite, k [ed25519.SignatureSize]byte) bool {
	_, ok := s.known[k]
	return ok
}

// TestEd25519MemoRejects: the Ed25519Suite memo answers only for the
// signature it holds — same signer, same bytes, same statement — so a
// memoized signature relabelled, re-bound or flipped in place, and a
// certificate with one forged component among memoized ones, are
// rejected, whether the memo was made by Sign or by Verify, and again
// after a wholesale flush.
func TestEd25519MemoRejects(t *testing.T) {
	const n = 7
	q := n - (n-1)/3
	data, other := Statement("memo", 7, nil), Statement("memo", 8, nil)
	// Each case gets a fresh suite and memoized signature by node 0 and
	// returns a verification that must fail.
	cases := map[string]func(t *testing.T, s *Ed25519Suite, sig Signature) error{
		"relabelled to another signer": func(_ *testing.T, s *Ed25519Suite, sig Signature) error {
			return s.Verify(data, Signature{Signer: 1, Bytes: sig.Bytes})
		},
		"same bytes over another statement": func(_ *testing.T, s *Ed25519Suite, sig Signature) error {
			return s.Verify(other, sig)
		},
		"flipped in place": func(_ *testing.T, s *Ed25519Suite, sig Signature) error {
			sig.Bytes[0] ^= 1
			return s.Verify(data, sig)
		},
		"certificate with one forged component": func(t *testing.T, s *Ed25519Suite, sig Signature) error {
			sigs := []Signature{sig}
			for i := 1; i < q; i++ {
				sigs = append(sigs, s.SignerFor(types.NodeID(i)).Sign(data))
			}
			agg, err := s.Aggregate(data, sigs)
			if err != nil {
				t.Fatalf("honest certificate: %v", err)
			}
			forged := agg.Clone()
			forged.Bytes[q-1][0] ^= 1
			if _, err := s.Aggregate(data, append(sigs[:q-1:q-1], Signature{Signer: types.NodeID(q - 1), Bytes: forged.Bytes[q-1]})); err == nil {
				t.Fatal("Aggregate accepted a forged component")
			}
			return s.VerifyAggregate(data, forged, q)
		},
	}
	for _, flushed := range []bool{false, true} {
		for _, origin := range []string{"signed", "verified"} {
			for name, attack := range cases {
				t.Run(fmt.Sprintf("flushed=%v/%s/%s", flushed, origin, name), func(t *testing.T) {
					s, sig := memoized(t, n, origin, data)
					if flushed {
						flush(t, s, data, sig)
					}
					if err := s.Verify(data, sig); err != nil {
						t.Fatalf("honest signature rejected: %v", err)
					}
					if attack(t, s, sig) == nil {
						t.Fatal("accepted")
					}
				})
			}
		}
	}
}

// TestEd25519VerifiesOnce counts real ed25519 verifications: a
// certificate over signatures the suite verified or made, and the check
// of that certificate, cost none; a foreign certificate costs one per
// component, once.
func TestEd25519VerifiesOnce(t *testing.T) {
	const n = 7
	q := n - (n-1)/3
	s, peer := NewEd25519Suite(n, 1), NewEd25519Suite(n, 1)
	cost := func(what string, want int64, f func() error) {
		t.Helper()
		before := s.Verifications()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := s.Verifications() - before; got != want {
			t.Errorf("%s: %d ed25519 verifications, want %d", what, got, want)
		}
	}
	certificate := func(signers *Ed25519Suite, stmt []byte) []Signature {
		sigs := make([]Signature, q)
		for i := range sigs {
			sigs[i] = signers.SignerFor(types.NodeID(i)).Sign(stmt)
		}
		return sigs
	}

	votes := Statement("vote", 1, nil)
	sigs := certificate(peer, votes)
	cost("tally", int64(q), func() error {
		for _, sig := range sigs {
			if err := s.Verify(votes, sig); err != nil {
				return err
			}
		}
		return nil
	})
	var agg Aggregate
	cost("Aggregate of verified votes", 0, func() (err error) {
		agg, err = s.Aggregate(votes, sigs)
		return err
	})
	cost("VerifyAggregate of the result", 0, func() error { return s.VerifyAggregate(votes, agg, q) })

	own := Statement("own", 1, nil)
	cost("own signatures", 0, func() error {
		agg, err := s.Aggregate(own, certificate(s, own))
		if err != nil {
			return err
		}
		return s.VerifyAggregate(own, agg, q)
	})

	foreign := Statement("foreign", 1, nil)
	fagg, err := peer.Aggregate(foreign, certificate(peer, foreign))
	if err != nil {
		t.Fatal(err)
	}
	cost("foreign certificate", int64(q), func() error { return s.VerifyAggregate(foreign, fagg, q) })
	cost("foreign certificate again", 0, func() error { return s.VerifyAggregate(foreign, fagg, q) })
}

// TestEd25519MemoAllocs: the memo allocates nothing. A hit allocates
// nothing, and a pass over more signatures than the memo holds — each a
// miss that records its signature, the memo flushing wholesale on the
// way — allocates no more than ed25519.Verify alone.
func TestEd25519MemoAllocs(t *testing.T) {
	const n = 4
	s, peer := NewEd25519Suite(n, 1), NewEd25519Suite(n, 1)
	data := Statement("allocs", 1, nil)
	sig := s.SignerFor(0).Sign(data)
	if hit := allocgate.PerRun(t, 100, func() {
		if err := s.Verify(data, sig); err != nil {
			t.Fatal(err)
		}
	}); hit != 0 {
		t.Fatalf("memo hit allocates %.3f/op", hit)
	}
	stmts := make([][]byte, 2*maxSigned(n))
	sigs := make([]Signature, len(stmts))
	for i := range stmts {
		stmts[i] = Statement("allocs", types.View(i), nil)
		sigs[i] = peer.SignerFor(types.NodeID(i % n)).Sign(stmts[i])
	}
	before := s.Verifications()
	pass := allocgate.PerRun(t, 1, func() { // after one warm-up pass
		for i, sig := range sigs {
			if err := s.Verify(stmts[i], sig); err != nil {
				t.Fatal(err)
			}
		}
	})
	if misses := s.Verifications() - before; misses < 2*int64(len(sigs))-int64(maxSigned(n)) {
		t.Fatalf("%d ed25519 verifications in two passes over %d signatures: the memo did not flush", misses, len(sigs))
	}
	bare := allocgate.PerRun(t, 100, func() { ed25519.Verify(s.pub[0], data, sig.Bytes) })
	if pass > bare*float64(len(sigs)) {
		t.Fatalf("a pass of %d memo misses allocates %.0f times, ed25519.Verify alone %.3f/op", len(sigs), pass, bare)
	}
}

// TestEd25519Concurrent signs and verifies through one suite from several
// goroutines, as a TCP node's goroutines do, across memo flushes; run it
// under -race.
func TestEd25519Concurrent(t *testing.T) {
	const n, workers, ops = 4, 4, 40
	s, peer := NewEd25519Suite(n, 1), NewEd25519Suite(n, 1)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := types.NodeID(w % n)
			for i := 0; i < ops; i++ {
				stmt := Statement("race", types.View(w*ops+i), nil)
				own, theirs := s.SignerFor(id).Sign(stmt), peer.SignerFor(id).Sign(stmt)
				for _, sig := range []Signature{own, theirs, own, theirs} {
					if err := s.Verify(stmt, sig); err != nil {
						errs <- err
						return
					}
				}
				if s.Verify(stmt, Signature{Signer: (id + 1) % n, Bytes: own.Bytes}) == nil {
					errs <- fmt.Errorf("relabelled signature accepted")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
