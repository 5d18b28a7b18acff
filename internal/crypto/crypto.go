// Package crypto provides the signature substrate assumed in §2 of the
// paper: a signature scheme with PKI and an m-of-n threshold/aggregate
// scheme whose certificates have size O(κ) independent of m and n.
//
// Two suites are provided:
//
//   - SimSuite: an HMAC-SHA256 scheme keyed per node. It is cheap enough
//     for large simulated executions while still making signatures
//     unforgeable by construction inside the process (a Byzantine node's
//     code has no access to honest nodes' MAC keys). Aggregates carry the
//     signer set plus the component MACs; for communication-complexity
//     accounting every certificate is charged a constant κ bytes, matching
//     the paper's model (threshold signatures are O(κ)).
//
//   - Ed25519Suite: real public-key signatures from the standard library,
//     used by the TCP runtime. The standard library has no pairing-based
//     threshold scheme, so aggregates are multisignatures (concatenated
//     ed25519 signatures) — a documented substitution (see DESIGN.md §2);
//     complexity accounting still charges κ per certificate so the
//     measured message-complexity shapes are unchanged.
package crypto

import (
	"bytes"
	"cmp"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"slices"

	"lumiere/internal/types"
)

// Errors returned by aggregate construction and verification.
var (
	ErrBadSignature    = errors.New("crypto: signature verification failed")
	ErrDuplicateSigner = errors.New("crypto: duplicate signer in aggregate")
	ErrThreshold       = errors.New("crypto: aggregate below threshold")
	ErrUnknownSigner   = errors.New("crypto: unknown signer")
)

// Signature is a single-node signature over a byte string.
type Signature struct {
	Signer types.NodeID
	Bytes  []byte
}

// Aggregate is an m-of-n certificate: a threshold signature in the paper's
// model. Signers is sorted and duplicate-free.
type Aggregate struct {
	Signers []types.NodeID
	Bytes   [][]byte // component signatures, parallel to Signers
}

// Count returns the number of distinct signers.
func (a *Aggregate) Count() int { return len(a.Signers) }

// Has reports whether id contributed to the aggregate.
func (a *Aggregate) Has(id types.NodeID) bool {
	_, ok := slices.BinarySearch(a.Signers, id)
	return ok
}

// Clone returns a deep copy of the aggregate.
func (a *Aggregate) Clone() Aggregate {
	out := Aggregate{
		Signers: append([]types.NodeID(nil), a.Signers...),
		Bytes:   make([][]byte, len(a.Bytes)),
	}
	for i, b := range a.Bytes {
		out.Bytes[i] = append([]byte(nil), b...)
	}
	return out
}

// Truncate returns an aggregate containing only the first m signers. The
// paper uses this implicitly: any EC (2f+1 signers) contains a TC (f+1
// signers).
func (a *Aggregate) Truncate(m int) Aggregate {
	if m > len(a.Signers) {
		m = len(a.Signers)
	}
	return Aggregate{Signers: a.Signers[:m], Bytes: a.Bytes[:m]}
}

// Signer signs on behalf of one node.
type Signer interface {
	ID() types.NodeID
	Sign(data []byte) Signature
}

// Suite is a signature scheme plus PKI for a fixed set of n nodes.
type Suite interface {
	// SignerFor returns the signing handle for a node (its private key).
	SignerFor(id types.NodeID) Signer
	// Verify checks a single signature.
	Verify(data []byte, sig Signature) error
	// Aggregate combines component signatures into a certificate,
	// verifying each and rejecting duplicates.
	Aggregate(data []byte, sigs []Signature) (Aggregate, error)
	// VerifyAggregate checks a certificate against a threshold.
	VerifyAggregate(data []byte, agg Aggregate, threshold int) error
	// N returns the number of nodes in the PKI.
	N() int
}

// aggregate is the shared combine logic used by both suites. sorted is
// the caller's private copy of the signatures (sorted here in place) and
// slots the empty destination for the component list. Every component is
// verified even though protocol callers verified each signature as it
// arrived: that check is what makes the result a certificate for ANY
// caller (internal/adversary included), so SimSuite may seal it as
// verified at construction.
func aggregate(s Suite, data []byte, sorted []Signature, slots [][]byte) (Aggregate, error) {
	// slices.SortFunc rather than sort.Slice: the non-capturing
	// comparison keeps the certificate-assembly path free of closure
	// allocations.
	slices.SortFunc(sorted, func(a, b Signature) int { return cmp.Compare(a.Signer, b.Signer) })
	agg := Aggregate{Signers: make([]types.NodeID, 0, len(sorted)), Bytes: slots}
	for i, sig := range sorted {
		if i > 0 && sig.Signer == sorted[i-1].Signer {
			return Aggregate{}, fmt.Errorf("%w: %v", ErrDuplicateSigner, sig.Signer)
		}
		if err := s.Verify(data, sig); err != nil {
			return Aggregate{}, err
		}
		agg.Signers = append(agg.Signers, sig.Signer)
		agg.Bytes = append(agg.Bytes, sig.Bytes)
	}
	return agg, nil
}

// verifyAggregate is the shared threshold-check logic.
func verifyAggregate(s Suite, data []byte, agg Aggregate, threshold int) error {
	if agg.Count() < threshold {
		return fmt.Errorf("%w: have %d, need %d", ErrThreshold, agg.Count(), threshold)
	}
	if len(agg.Signers) != len(agg.Bytes) {
		return fmt.Errorf("crypto: malformed aggregate: %d signers, %d signatures", len(agg.Signers), len(agg.Bytes))
	}
	for i := range agg.Signers {
		if i > 0 && agg.Signers[i] <= agg.Signers[i-1] {
			return fmt.Errorf("%w: signer list not strictly sorted", ErrDuplicateSigner)
		}
		sig := Signature{Signer: agg.Signers[i], Bytes: agg.Bytes[i]}
		if err := s.Verify(data, sig); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// SimSuite
// ---------------------------------------------------------------------------

// SimSuite is the HMAC-based suite used by the simulator. Unlike
// Ed25519Suite it is NOT safe for concurrent use: it reuses one keyed
// HMAC state per node across operations and bump-allocates signature
// outputs from shared blocks, so each suite must be confined to a single
// execution's event loop (the harness creates or resets one per run).
type SimSuite struct {
	keys [][]byte
	// macs caches one keyed HMAC state per node, initialized lazily and
	// recycled via hash.Reset — signing and verification allocate no
	// hash state in steady state.
	macs []hash.Hash
	// sigs is the bump arena signature outputs are cut from: Sum appends
	// into the current block, and a fresh block is chained when it
	// fills. Reset detaches the block instead of truncating it, so
	// signatures held by a previous execution's messages stay intact.
	sigs []byte
	// vbuf is the verification scratch: recomputed MACs are compared
	// against the candidate and never escape.
	vbuf []byte
	// sorted is Aggregate's sort scratch (the suite is single-threaded).
	sorted []Signature
	// sealed records, by identity, the certificates this suite has fully
	// checked — each one Aggregate built or VerifyAggregate passed
	// component by component — so the n recipients of a broadcast
	// certificate pay O(1) in κ each, not 2f+1 keyed HMACs. The key is
	// the backing arrays of the signer and component lists plus their
	// length (a Truncate view shares its parent's arrays); the entry holds
	// the bound statement and a private copy of the component slice
	// headers, never the MAC bytes. A hit needs an equal statement, an
	// equal key and the same (pointer, length) in every slot: whatever was
	// re-assembled, re-bound, re-sliced or had a slot swapped falls through
	// to the full check. Assumed: a sent message's signature bytes live in
	// the suite's append-only arena and are never written after Sign —
	// flipping bytes of a shared message in place is simulator corruption,
	// outside the §2 adversary. No size threshold: a hit is cheaper than
	// one HMAC at every n. Simulation only; Ed25519Suite checks everything.
	sealed map[aggKey]sealedCert
}

// aggKey is the identity of an aggregate: its backing arrays and length.
type aggKey struct {
	signers *types.NodeID
	bytes   *[]byte
	n       int
}

// sealedCert is what a sealed certificate was checked against.
type sealedCert struct {
	stmt  [64]byte // the bound statement, inline (the protocols' longest is 53 bytes)
	nstmt int
	slots [][]byte // private copy of the component slice headers
}

func (c *sealedCert) holds(data []byte, agg Aggregate) bool {
	if !bytes.Equal(c.stmt[:c.nstmt], data) {
		return false
	}
	slots := agg.Bytes[:len(c.slots)] // one bounds check for the loop
	for i, m := range c.slots {
		if b := slots[i]; len(b) != len(m) || len(m) == 0 || &b[0] != &m[0] {
			return false
		}
	}
	return true
}

// sigBlock is the byte size of one signature-output block (1024
// signatures of sha256.Size bytes each).
const sigBlock = 1024 * sha256.Size

var _ Suite = (*SimSuite)(nil)

// NewSimSuite creates a SimSuite for n nodes with keys derived from seed.
func NewSimSuite(n int, seed int64) *SimSuite {
	s := &SimSuite{}
	s.Reset(n, seed)
	return s
}

// Reset re-keys the suite for n nodes from seed, reusing key buffers and
// dropping the cached per-node HMAC states (they re-key lazily). The
// current signature block is detached, not truncated: signatures already
// handed out keep their bytes. The result is indistinguishable from
// NewSimSuite(n, seed).
func (s *SimSuite) Reset(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	if cap(s.keys) < n {
		grown := make([][]byte, n)
		copy(grown, s.keys)
		s.keys = grown
	}
	s.keys = s.keys[:n]
	for i := range s.keys {
		if s.keys[i] == nil {
			s.keys[i] = make([]byte, 32)
		}
		// rand.Rand.Read never returns an error.
		rng.Read(s.keys[i])
	}
	if cap(s.macs) < n {
		s.macs = make([]hash.Hash, n)
	}
	s.macs = s.macs[:n]
	for i := range s.macs {
		s.macs[i] = nil
	}
	s.sigs = nil
	clear(s.sealed)
}

// N implements Suite.
func (s *SimSuite) N() int { return len(s.keys) }

type simSigner struct {
	suite *SimSuite
	id    types.NodeID
}

// SignerFor implements Suite.
func (s *SimSuite) SignerFor(id types.NodeID) Signer {
	if int(id) < 0 || int(id) >= len(s.keys) {
		panic(fmt.Sprintf("crypto: signer for unknown node %v", id))
	}
	return simSigner{suite: s, id: id}
}

func (ss simSigner) ID() types.NodeID { return ss.id }

func (ss simSigner) Sign(data []byte) Signature {
	s := ss.suite
	h := s.macState(ss.id)
	h.Write(data)
	if cap(s.sigs)-len(s.sigs) < sha256.Size {
		s.sigs = make([]byte, 0, sigBlock)
	}
	n := len(s.sigs)
	s.sigs = h.Sum(s.sigs)
	return Signature{Signer: ss.id, Bytes: s.sigs[n:len(s.sigs):len(s.sigs)]}
}

// macState returns node id's keyed HMAC state, reset and ready to write.
func (s *SimSuite) macState(id types.NodeID) hash.Hash {
	h := s.macs[id]
	if h == nil {
		h = hmac.New(sha256.New, s.keys[id])
		s.macs[id] = h
	} else {
		h.Reset()
	}
	return h
}

// Verify implements Suite.
func (s *SimSuite) Verify(data []byte, sig Signature) error {
	if int(sig.Signer) < 0 || int(sig.Signer) >= len(s.keys) {
		return fmt.Errorf("%w: %v", ErrUnknownSigner, sig.Signer)
	}
	h := s.macState(sig.Signer)
	h.Write(data)
	s.vbuf = h.Sum(s.vbuf[:0])
	if !hmac.Equal(sig.Bytes, s.vbuf) {
		return fmt.Errorf("%w: signer %v", ErrBadSignature, sig.Signer)
	}
	return nil
}

// Aggregate implements Suite. The result is sealed: aggregate has just
// verified every component, so no recipient re-MACs an honestly
// assembled certificate. The component list and the seal's private copy
// of it share one allocation.
func (s *SimSuite) Aggregate(data []byte, sigs []Signature) (Aggregate, error) {
	n := len(sigs)
	s.sorted = append(s.sorted[:0], sigs...)
	slots := make([][]byte, 2*n)
	agg, err := aggregate(s, data, s.sorted, slots[:0:n])
	if err == nil {
		s.seal(data, agg, slots[n:])
	}
	return agg, err
}

// maxSealedCerts bounds the seal map; on overflow it flushes wholesale.
// Only certificates still in flight are looked up again, and one that
// loses its seal costs its next recipient one full check. Measured: no
// re-check at all on fixed-delay runs even at a bound of 4, and 0.1% of
// verifications on the chaos sweep (pre-GST traffic held back) at 64,
// where an entry and the arrays it pins cost ~5 KB at n=61.
const maxSealedCerts = 64

// VerifyAggregate implements Suite. Only a well-shaped aggregate — at
// threshold, one component per signer — can hit a seal.
func (s *SimSuite) VerifyAggregate(data []byte, agg Aggregate, threshold int) error {
	if n := len(agg.Signers); n > 0 && n >= threshold && n == len(agg.Bytes) {
		k := aggKey{signers: &agg.Signers[0], bytes: &agg.Bytes[0], n: n}
		if c, hit := s.sealed[k]; hit && c.holds(data, agg) {
			return nil
		}
	}
	if err := verifyAggregate(s, data, agg, threshold); err != nil {
		return err
	}
	s.seal(data, agg, make([][]byte, len(agg.Bytes)))
	return nil
}

// seal records a fully checked (statement, certificate) pair; slots
// receives the private copy of the component slice headers.
func (s *SimSuite) seal(data []byte, agg Aggregate, slots [][]byte) {
	c := sealedCert{nstmt: len(data), slots: slots}
	if len(slots) == 0 || len(data) > len(c.stmt) {
		return
	}
	if s.sealed == nil {
		s.sealed = make(map[aggKey]sealedCert, maxSealedCerts)
	} else if len(s.sealed) >= maxSealedCerts {
		clear(s.sealed)
	}
	copy(c.stmt[:], data)
	copy(slots, agg.Bytes)
	s.sealed[aggKey{signers: &agg.Signers[0], bytes: &agg.Bytes[0], n: len(slots)}] = c
}

// ---------------------------------------------------------------------------
// Ed25519Suite
// ---------------------------------------------------------------------------

// Ed25519Suite uses real ed25519 keys; certificates are multisignatures.
type Ed25519Suite struct {
	pub  []ed25519.PublicKey
	priv []ed25519.PrivateKey
}

var _ Suite = (*Ed25519Suite)(nil)

// NewEd25519Suite deterministically generates keys for n nodes from seed.
// Deterministic generation keeps multi-process clusters configuration-free:
// every process derives the same PKI from the shared seed.
func NewEd25519Suite(n int, seed int64) *Ed25519Suite {
	rng := rand.New(rand.NewSource(seed))
	s := &Ed25519Suite{
		pub:  make([]ed25519.PublicKey, n),
		priv: make([]ed25519.PrivateKey, n),
	}
	for i := 0; i < n; i++ {
		seedBytes := make([]byte, ed25519.SeedSize)
		rng.Read(seedBytes)
		s.priv[i] = ed25519.NewKeyFromSeed(seedBytes)
		s.pub[i] = s.priv[i].Public().(ed25519.PublicKey)
	}
	return s
}

// N implements Suite.
func (s *Ed25519Suite) N() int { return len(s.pub) }

type edSigner struct {
	suite *Ed25519Suite
	id    types.NodeID
}

// SignerFor implements Suite.
func (s *Ed25519Suite) SignerFor(id types.NodeID) Signer {
	if int(id) < 0 || int(id) >= len(s.priv) {
		panic(fmt.Sprintf("crypto: signer for unknown node %v", id))
	}
	return edSigner{suite: s, id: id}
}

func (es edSigner) ID() types.NodeID { return es.id }

func (es edSigner) Sign(data []byte) Signature {
	return Signature{Signer: es.id, Bytes: ed25519.Sign(es.suite.priv[es.id], data)}
}

// Verify implements Suite.
func (s *Ed25519Suite) Verify(data []byte, sig Signature) error {
	if int(sig.Signer) < 0 || int(sig.Signer) >= len(s.pub) {
		return fmt.Errorf("%w: %v", ErrUnknownSigner, sig.Signer)
	}
	if !ed25519.Verify(s.pub[sig.Signer], data, sig.Bytes) {
		return fmt.Errorf("%w: signer %v", ErrBadSignature, sig.Signer)
	}
	return nil
}

// Aggregate implements Suite.
func (s *Ed25519Suite) Aggregate(data []byte, sigs []Signature) (Aggregate, error) {
	return aggregate(s, data, append([]Signature(nil), sigs...), make([][]byte, 0, len(sigs)))
}

// VerifyAggregate implements Suite.
func (s *Ed25519Suite) VerifyAggregate(data []byte, agg Aggregate, threshold int) error {
	return verifyAggregate(s, data, agg, threshold)
}

// ---------------------------------------------------------------------------
// Signing payload helpers
// ---------------------------------------------------------------------------

// Statement builds the canonical byte string that protocol messages sign:
// a domain tag, a view number and an optional hash. Using a fixed encoding
// keeps the two suites and the two runtimes interoperable.
func Statement(domain string, view types.View, hash []byte) []byte {
	return AppendStatement(make([]byte, 0, len(domain)+1+8+len(hash)), domain, view, hash)
}

// AppendStatement appends the canonical statement encoding to buf and
// returns the extended slice. Engines on the signing hot path keep a
// per-instance scratch buffer and rebuild statements in place
// (buf[:0]), so steady-state signing and verification allocate nothing;
// Statement is the allocating convenience form.
func AppendStatement(buf []byte, domain string, view types.View, hash []byte) []byte {
	buf = append(buf, domain...)
	buf = append(buf, 0)
	buf = binary.BigEndian.AppendUint64(buf, uint64(view))
	return append(buf, hash...)
}
