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
// per-node HMAC states and the signature memo warm, Sign allocates only
// the amortized output block (1 per 1024 signatures, 0 per op in
// AllocsPerRun's integer average) while the memo fills and flushes, and
// Verify allocates nothing, whether the memo answers or the full check
// runs and records.
func TestSimSuiteSteadyStateAllocs(t *testing.T) {
	s := NewSimSuite(4, 1)
	data := []byte("warm statement")
	sig := s.SignerFor(1).Sign(data)
	if err := s.Verify(data, sig); err != nil {
		t.Fatal(err)
	}
	signer := s.SignerFor(1) // engines hold their Signer for the run
	// Grow the memo to its bound before measuring.
	for i := 0; i < maxSigned(4); i++ {
		signer.Sign(data)
	}
	// 2000 signatures flush the memo (maxSigned(4) = 80) 25 times.
	signAllocs := allocgate.PerRun(t, 2000, func() {
		signer.Sign(data)
	})
	if signAllocs != 0 {
		t.Fatalf("Sign allocates %.3f/op in steady state", signAllocs)
	}
	sig = signer.Sign(data)
	if !memoHolds(s, data, sig) {
		t.Fatal("fresh signature not memoized")
	}
	memoAllocs := allocgate.PerRun(t, 1000, func() {
		if err := s.Verify(data, sig); err != nil {
			t.Fatal(err)
		}
	})
	if memoAllocs != 0 {
		t.Fatalf("memoized Verify allocates %.3f/op", memoAllocs)
	}
	// A pass over more signatures than the memo holds, made by a second
	// suite with the same keys: every Verify is a full check that
	// records its signature, the memo flushing on the way.
	peer := NewSimSuite(4, 1)
	stmts := make([][]byte, 2*maxSigned(4))
	misses := make([]Signature, len(stmts))
	for i := range stmts {
		stmts[i] = Statement("allocs", types.View(i), nil)
		misses[i] = peer.SignerFor(types.NodeID(i % 4)).Sign(stmts[i])
	}
	verifyAllocs := allocgate.PerRun(t, 10, func() {
		for i, sig := range misses {
			if err := s.Verify(stmts[i], sig); err != nil {
				t.Fatal(err)
			}
		}
	})
	if verifyAllocs != 0 {
		t.Fatalf("a pass of %d full Verify calls allocates %.3f times in steady state", len(misses), verifyAllocs)
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

// memoHolds reports whether s's signature memo holds sig as its
// signer's signature over data.
func memoHolds(s Suite, data []byte, sig Signature) bool {
	switch s := s.(type) {
	case *SimSuite:
		k, ok := s.known.key(data, sig)
		return ok && s.known.holds(k, sig.Signer, data)
	case *Ed25519Suite:
		k, ok := s.known.key(data, sig)
		return ok && s.known.holds(k, sig.Signer, data)
	}
	panic(fmt.Sprintf("no memo in %T", s))
}

// newSuite returns a fresh n-node suite of kind "sim" or "ed25519" with
// keys from seed.
func newSuite(kind string, n int, seed int64) Suite {
	if kind == "sim" {
		return NewSimSuite(n, seed)
	}
	return NewEd25519Suite(n, seed)
}

// memoized returns a fresh suite of kind at n nodes holding one memoized
// signature by node 0 over data: made by the suite itself ("signed") or
// made by a second suite with the same keys and verified by this one
// ("verified").
func memoized(t *testing.T, kind string, n int, origin string, data []byte) (Suite, Signature) {
	t.Helper()
	s := newSuite(kind, n, 1)
	var sig Signature
	switch origin {
	case "signed":
		sig = s.SignerFor(0).Sign(data)
	case "verified":
		sig = newSuite(kind, n, 1).SignerFor(0).Sign(data)
		if err := s.Verify(data, sig); err != nil {
			t.Fatal(err)
		}
	}
	if !memoHolds(s, data, sig) {
		t.Fatal("signature not memoized")
	}
	return s, sig
}

// flush signs over other statements until s's memo reaches maxSigned(n)
// entries and flushes wholesale, checking that sig's entry, the memo's
// only one, lasts until then and goes with the flush.
func flush(t *testing.T, s Suite, data []byte, sig Signature) {
	t.Helper()
	fill := func(i int) { s.SignerFor(types.NodeID(i % s.N())).Sign(Statement("fill", types.View(i), nil)) }
	for i := 0; i < maxSigned(s.N())-1; i++ {
		fill(i)
	}
	if !memoHolds(s, data, sig) {
		t.Fatal("memo flushed below its bound")
	}
	fill(maxSigned(s.N()))
	if memoHolds(s, data, sig) {
		t.Fatal("memo entry survived the flush")
	}
}

// memoCase is one case of the signature-memo table. It gets a suite
// holding a memoized signature sig by node 0 over memoData and returns
// a verification that must fail; an honest case returns a statement and
// an honest signature that must verify, and whether the memo holds it.
type memoCase struct {
	name   string
	reject func(t *testing.T, s Suite, sig Signature) error
	honest func(s Suite, sig Signature) (data []byte, honest Signature, held bool)
}

var memoData, memoOther = Statement("memo", 7, nil), Statement("memo", 8, nil)

// memoCases is the signature-memo table, run against both suites: a
// memo hit needs the same signer, the same statement and the same bytes,
// so whatever was relabelled, re-bound, flipped, re-sliced or made or
// checked with other keys misses and is rejected by the full check, and
// a certificate with one forged component among memoized ones is
// rejected too; a byte copy hits, and what the memo cannot or no longer
// hold verifies through the full check.
func memoCases(kind string, n int) []memoCase {
	byz := types.NodeID(n - 1) // a Byzantine node signs with its own key only
	q := n - (n-1)/3
	return []memoCase{
		{name: "relabelled to another signer", reject: func(_ *testing.T, s Suite, sig Signature) error {
			return s.Verify(memoData, Signature{Signer: 1, Bytes: sig.Bytes})
		}},
		{name: "relabelled to another honest signer", reject: func(_ *testing.T, s Suite, sig Signature) error {
			s.SignerFor(1).Sign(memoData) // its own entry exists, for other bytes
			return s.Verify(memoData, Signature{Signer: 1, Bytes: sig.Bytes})
		}},
		{name: "relabelled to the Byzantine signer", reject: func(_ *testing.T, s Suite, sig Signature) error {
			s.SignerFor(byz).Sign(memoData)
			return s.Verify(memoData, Signature{Signer: byz, Bytes: sig.Bytes})
		}},
		{name: "same bytes over another statement", reject: func(_ *testing.T, s Suite, sig Signature) error {
			return s.Verify(memoOther, sig)
		}},
		{name: "re-bound statement", reject: func(_ *testing.T, s Suite, sig Signature) error {
			s.SignerFor(0).Sign(memoOther) // node 0's entry over it holds other bytes
			return s.Verify(memoOther, sig)
		}},
		{name: "flipped copy", reject: func(_ *testing.T, s Suite, sig Signature) error {
			c := bytes.Clone(sig.Bytes)
			c[0] ^= 1
			return s.Verify(memoData, Signature{Signer: sig.Signer, Bytes: c})
		}},
		{name: "flipped in place", reject: func(_ *testing.T, s Suite, sig Signature) error {
			sig.Bytes[0] ^= 1 // after recording: the key is the content, so it misses
			return s.Verify(memoData, sig)
		}},
		{name: "re-sliced", reject: func(_ *testing.T, s Suite, sig Signature) error {
			return s.Verify(memoData, Signature{Signer: sig.Signer, Bytes: sig.Bytes[1:]})
		}},
		{name: "re-sliced prefix, same first byte", reject: func(_ *testing.T, s Suite, sig Signature) error {
			return s.Verify(memoData, Signature{Signer: sig.Signer, Bytes: sig.Bytes[:len(sig.Bytes)-1]})
		}},
		{name: "second suite with other keys", reject: func(_ *testing.T, s Suite, _ Signature) error {
			return s.Verify(memoData, newSuite(kind, n, 2).SignerFor(0).Sign(memoData))
		}},
		{name: "verified by a second suite with other keys", reject: func(_ *testing.T, _ Suite, sig Signature) error {
			return newSuite(kind, n, 2).Verify(memoData, sig) // holds no entry and other keys
		}},
		{name: "certificate with one forged component", reject: func(t *testing.T, s Suite, sig Signature) error {
			sigs := []Signature{sig}
			for i := 1; i < q; i++ {
				sigs = append(sigs, s.SignerFor(types.NodeID(i)).Sign(memoData))
			}
			agg, err := s.Aggregate(memoData, sigs)
			if err != nil {
				t.Fatalf("honest certificate: %v", err)
			}
			forged := agg.Clone()
			forged.Bytes[q-1][0] ^= 1
			if _, err := s.Aggregate(memoData, append(sigs[:q-1:q-1], Signature{Signer: types.NodeID(q - 1), Bytes: forged.Bytes[q-1]})); err == nil {
				t.Fatal("Aggregate accepted a forged component")
			}
			return s.VerifyAggregate(memoData, forged, q)
		}},
		{name: "honest byte copy", honest: func(_ Suite, sig Signature) ([]byte, Signature, bool) {
			return memoData, Signature{Signer: sig.Signer, Bytes: bytes.Clone(sig.Bytes)}, true
		}},
		{name: "statement longer than 64 bytes", honest: func(s Suite, _ Signature) ([]byte, Signature, bool) {
			long := bytes.Repeat([]byte{7}, 65)
			return long, s.SignerFor(0).Sign(long), false
		}},
		{name: "flushed by the bound", honest: func(s Suite, sig Signature) ([]byte, Signature, bool) {
			for i := 0; i < maxSigned(n); i++ {
				s.SignerFor(types.NodeID(i % n)).Sign(Statement("fill", types.View(i), nil))
			}
			return memoData, sig, false
		}},
	}
}

// runMemoCases runs memoCases against kind at n nodes, each case on a
// fresh suite whose memo entry for sig was made as origin says and, if
// flushed, flushed and re-recorded by a full check; prefix names the
// subtests.
func runMemoCases(t *testing.T, prefix, kind string, n int, origin string, flushed bool) {
	for _, c := range memoCases(kind, n) {
		t.Run(prefix+"/"+c.name, func(t *testing.T) {
			s, sig := memoized(t, kind, n, origin, memoData)
			if flushed {
				flush(t, s, memoData, sig)
			}
			for i := 0; i < 2; i++ {
				if err := s.Verify(memoData, sig); err != nil {
					t.Fatalf("round %d: honest signature rejected: %v", i, err)
				}
			}
			if c.reject != nil {
				if c.reject(t, s, sig) == nil {
					t.Fatal("accepted")
				}
				return
			}
			data, honest, held := c.honest(s, sig)
			if memoHolds(s, data, honest) != held {
				t.Fatalf("memo holds the signature: %v, want %v", !held, held)
			}
			if err := s.Verify(data, honest); err != nil {
				t.Fatalf("honest signature rejected: %v", err)
			}
		})
	}
}

// TestSignedSignatureSeal runs the signature-memo table against SimSuite
// at a small and a large n.
func TestSignedSignatureSeal(t *testing.T) {
	for _, n := range []int{4, 64} {
		runMemoCases(t, fmt.Sprintf("n=%d", n), "sim", n, "signed", false)
	}
}

// TestEd25519MemoRejects runs the signature-memo table against
// Ed25519Suite, whether the memo entry was made by Sign or by Verify,
// and again after a wholesale flush.
func TestEd25519MemoRejects(t *testing.T) {
	for _, flushed := range []bool{false, true} {
		for _, origin := range []string{"signed", "verified"} {
			runMemoCases(t, fmt.Sprintf("flushed=%v/%s", flushed, origin), "ed25519", 7, origin, flushed)
		}
	}
}

// TestSignedSignatureSealSkipsHMAC shows that a memoized signature is
// accepted by the lookup, not by an HMAC: once the signer's key is
// overwritten, the memoized signature and a byte copy of it still
// verify, while the same signature, once flushed from the memo, takes
// the full check and fails.
func TestSignedSignatureSealSkipsHMAC(t *testing.T) {
	s := NewSimSuite(4, 1)
	data := Statement("seal", 7, nil)
	sig := s.SignerFor(2).Sign(data)
	copy(s.keys[2], bytes.Repeat([]byte{0xa5}, len(s.keys[2])))
	s.macs[2] = nil // re-keys from the overwritten key on next use
	for _, c := range []Signature{sig, {Signer: sig.Signer, Bytes: bytes.Clone(sig.Bytes)}} {
		if err := s.Verify(data, c); err != nil {
			t.Fatalf("memoized signature rejected: %v", err)
		}
	}
	for i := 0; i < maxSigned(4); i++ {
		s.SignerFor(0).Sign(Statement("fill", types.View(i), nil))
	}
	if err := s.Verify(data, sig); err == nil {
		t.Fatal("flushed signature verified under the overwritten key")
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
// way — allocates no more than ed25519.Verify alone. The passes are
// measured as an average over two, which rounds down: one allocation
// the runtime makes for itself (a thread it starts as the world restarts
// after a GC) cannot fail it, while a memo that allocates on each flush
// allocates at least twice a pass.
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
	const measured = 2 // passes, after one warm-up pass
	before := s.Verifications()
	pass := allocgate.PerRun(t, measured, func() {
		for i, sig := range sigs {
			if err := s.Verify(stmts[i], sig); err != nil {
				t.Fatal(err)
			}
		}
	})
	if misses := s.Verifications() - before; misses < (measured+1)*int64(len(sigs))-measured*int64(maxSigned(n)) {
		t.Fatalf("%d ed25519 verifications in %d passes over %d signatures: the memo did not flush", misses, measured+1, len(sigs))
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
