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
	"sync"
	"sync/atomic"

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
	// establishing each and rejecting duplicates. A component the suite
	// has verified or made before is established by lookup.
	Aggregate(data []byte, sigs []Signature) (Aggregate, error)
	// VerifyAggregate checks a certificate against a threshold.
	VerifyAggregate(data []byte, agg Aggregate, threshold int) error
	// N returns the number of nodes in the PKI.
	N() int
}

// aggregate is the shared combine logic used by both suites. sorted is
// the caller's private copy of the signatures (sorted here in place) and
// slots the empty destination for the component list. Every component
// goes through s.Verify: that check is what makes the result a
// certificate for ANY caller (internal/adversary included), so SimSuite
// may seal it as verified at construction. A component the caller has
// already verified, as a protocol leader has each vote it tallied, is a
// memo lookup in either suite, not a second signature check.
func aggregate(s Suite, data []byte, sorted []Signature, signers []types.NodeID, slots [][]byte) (Aggregate, error) {
	// slices.SortFunc rather than sort.Slice: the non-capturing
	// comparison keeps the certificate-assembly path free of closure
	// allocations.
	slices.SortFunc(sorted, func(a, b Signature) int { return cmp.Compare(a.Signer, b.Signer) })
	agg := Aggregate{Signers: signers, Bytes: slots}
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
// execution's event loop (the harness creates one per run).
type SimSuite struct {
	keys [][]byte
	// macs caches one keyed HMAC state per node, initialized lazily and
	// recycled via hash.Reset — signing and verification allocate no
	// hash state in steady state.
	macs []hash.Hash
	// sigs is the bump block signature outputs are cut from: Sum appends
	// into the current block, and a fresh block is chained when it
	// fills, so signatures already handed out stay intact.
	sigs []byte
	// vbuf is the verification scratch: recomputed MACs are compared
	// against the candidate and never escape.
	vbuf []byte
	// sorted is Aggregate's sort scratch (the suite is single-threaded).
	sorted []Signature
	// known is the signature memo (sigMemo), so a recipient of a
	// broadcast signature pays one map lookup, not one keyed HMAC. It
	// is made without a size hint, so a suite pays nothing for
	// signatures it never makes.
	known sigMemo[[sha256.Size]byte]
	// sealed records, by identity, the certificates this suite has fully
	// checked — each one Aggregate built or VerifyAggregate passed
	// component by component — so the n recipients of a broadcast
	// certificate do not pay 2f+1 signature checks each. The key is
	// the backing arrays of the signer and component lists plus their
	// length (a Truncate view shares its parent's arrays); the entry holds
	// the bound statement and private copies of the signer IDs and of the
	// component slice headers, never the MAC bytes. A hit needs an equal
	// statement, an equal key, equal signer IDs and the same (pointer,
	// length) in every slot: whatever was re-assembled, re-bound,
	// re-sliced, relabelled in place or had a slot swapped falls through
	// to the full check. Assumed: a sent message's signature bytes live in
	// the suite's append-only blocks and are never written after Sign —
	// flipping bytes of a shared message in place is simulator corruption,
	// outside the §2 adversary. A hit still compares one signer ID and one
	// slot header per component, so it is O(n), not O(1) in κ: at n=1024
	// (683 components) the slot headers alone took 0.74–1.26 µs traced,
	// 2–3.5 HMACs of Sign (0.25–0.38 µs), and the signer IDs add one
	// 2.7 KB memcmp; still ≈ 1/250 of a full check. No size threshold: a
	// hit is cheaper than a full check at every n. Simulation only;
	// both suites memoize single signatures by content (known).
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
	stmt    [64]byte // the bound statement, inline (the protocols' longest is 53 bytes)
	nstmt   int
	signers []types.NodeID // private copy of the signer IDs
	slots   [][]byte       // private copy of the component slice headers
}

func (c *sealedCert) holds(data []byte, agg Aggregate) bool {
	if !bytes.Equal(c.stmt[:c.nstmt], data) {
		return false
	}
	// One pass over both lists: a second pass over the signer IDs
	// (slices.Equal) took 12 % of sim-sync-n1024's CPU on a 2-core Xeon;
	// fused into the slot loop, the compare hides under the slot loads.
	n := len(c.slots)
	slots, signers, own := agg.Bytes[:n], agg.Signers[:n], c.signers[:n] // one bounds check each
	for i, m := range c.slots {
		if b := slots[i]; signers[i] != own[i] || len(b) != len(m) || len(m) == 0 || &b[0] != &m[0] {
			return false
		}
	}
	return true
}

// sigMemo is a suite's memo of every signature it made or fully
// checked, so each is checked at most once. K is the suite's signature:
// the key is the signature's bytes, and the entry holds its signer and
// statement inline. A hit needs an equal key, an equal signer and an
// equal statement, so it repeats a fact the suite established itself;
// HMAC and ed25519 are deterministic, so a hit always answers what the
// full check would. A copy of a recorded signature hits; a relabelled
// signer, a re-bound statement, bytes flipped after recording, another
// suite's signature or a signature of the wrong length miss and take the
// full check. A statement longer than sealedSig.stmt is never recorded.
// The map flushes wholesale at limit entries; key and entry stay inline
// in it (Go stores either indirectly above 128 bytes), so a lookup or a
// record allocates nothing once the map has grown. It is not safe for
// concurrent use: Ed25519Suite guards its memo with its mutex.
type sigMemo[K [sha256.Size]byte | [ed25519.SignatureSize]byte] struct {
	m     map[K]sealedSig
	limit int
}

// newSigMemo returns a memo of at most limit entries, its map presized
// for hint.
func newSigMemo[K [sha256.Size]byte | [ed25519.SignatureSize]byte](limit, hint int) sigMemo[K] {
	return sigMemo[K]{m: make(map[K]sealedSig, hint), limit: limit}
}

// key returns sig's memo key, and false when the memo cannot hold it: a
// signature of the wrong length or a statement longer than
// sealedSig.stmt.
func (sigMemo[K]) key(data []byte, sig Signature) (k K, ok bool) {
	if len(sig.Bytes) != len(k) || len(data) > len(sealedSig{}.stmt) {
		return k, false
	}
	return K(sig.Bytes), true
}

// holds reports whether signature k is signer's over data.
func (m *sigMemo[K]) holds(k K, signer types.NodeID, data []byte) bool {
	e, hit := m.m[k]
	return hit && e.signer == signer && bytes.Equal(e.stmt[:e.nstmt], data)
}

// record records that signature k is signer's over data.
func (m *sigMemo[K]) record(k K, signer types.NodeID, data []byte) {
	if len(m.m) >= m.limit {
		clear(m.m)
	}
	e := sealedSig{signer: signer, nstmt: len(data)}
	copy(e.stmt[:], data)
	m.m[k] = e
}

// sealedSig is what a signature was made or checked over: its signer and
// statement.
type sealedSig struct {
	signer types.NodeID
	stmt   [64]byte // inline, as in sealedCert
	nstmt  int
}

// maxSigned bounds the signature memo of an n-node suite: four
// signatures per node in flight, plus slack for small n. One that loses
// its entry costs each later recipient one full check.
func maxSigned(n int) int { return 4*n + 64 }

// sigBlock is the byte size of one signature-output block (1024
// signatures of sha256.Size bytes each).
const sigBlock = 1024 * sha256.Size

var _ Suite = (*SimSuite)(nil)

// NewSimSuite creates a SimSuite for n nodes with 32-byte keys derived
// from seed, cut from one slab. The per-node HMAC states are keyed on
// first use.
func NewSimSuite(n int, seed int64) *SimSuite {
	slab := make([]byte, 32*n)
	// rand.Rand.Read never returns an error, and one read of the slab
	// draws the bytes n reads of 32 would.
	rand.New(rand.NewSource(seed)).Read(slab)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = slab[32*i : 32*(i+1) : 32*(i+1)]
	}
	return &SimSuite{keys: keys, macs: make([]hash.Hash, n), known: newSigMemo[[sha256.Size]byte](maxSigned(n), 0)}
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
	sig := Signature{Signer: ss.id, Bytes: s.sigs[n:len(s.sigs):len(s.sigs)]}
	if k, ok := s.known.key(data, sig); ok {
		s.known.record(k, ss.id, data)
	}
	return sig
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
	k, memo := s.known.key(data, sig)
	if memo && s.known.holds(k, sig.Signer, data) {
		return nil
	}
	h := s.macState(sig.Signer)
	h.Write(data)
	s.vbuf = h.Sum(s.vbuf[:0])
	if !hmac.Equal(sig.Bytes, s.vbuf) {
		return fmt.Errorf("%w: signer %v", ErrBadSignature, sig.Signer)
	}
	if memo {
		s.known.record(k, sig.Signer, data)
	}
	return nil
}

// Aggregate implements Suite. The result is sealed: aggregate has just
// verified every component, so no recipient re-MACs an honestly
// assembled certificate. The signer and component lists each share one
// allocation with the seal's private copy of them.
func (s *SimSuite) Aggregate(data []byte, sigs []Signature) (Aggregate, error) {
	n := len(sigs)
	s.sorted = append(s.sorted[:0], sigs...)
	signers, slots := make([]types.NodeID, 2*n), make([][]byte, 2*n)
	agg, err := aggregate(s, data, s.sorted, signers[:0:n], slots[:0:n])
	if err == nil {
		s.seal(data, agg, signers[n:], slots[n:])
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
	s.seal(data, agg, make([]types.NodeID, len(agg.Signers)), make([][]byte, len(agg.Bytes)))
	return nil
}

// seal records a fully checked (statement, certificate) pair; signers and
// slots receive the private copies of the signer IDs and of the
// component slice headers.
func (s *SimSuite) seal(data []byte, agg Aggregate, signers []types.NodeID, slots [][]byte) {
	c := sealedCert{nstmt: len(data), signers: signers, slots: slots}
	if len(slots) == 0 || len(data) > len(c.stmt) {
		return
	}
	if s.sealed == nil {
		s.sealed = make(map[aggKey]sealedCert, maxSealedCerts)
	} else if len(s.sealed) >= maxSealedCerts {
		clear(s.sealed)
	}
	copy(c.stmt[:], data)
	copy(signers, agg.Signers)
	copy(slots, agg.Bytes)
	s.sealed[aggKey{signers: &agg.Signers[0], bytes: &agg.Bytes[0], n: len(slots)}] = c
}

// ---------------------------------------------------------------------------
// Ed25519Suite
// ---------------------------------------------------------------------------

// Ed25519Suite uses real ed25519 keys; certificates are multisignatures.
// It is safe for concurrent use: a TCP node's goroutines share its suite.
type Ed25519Suite struct {
	pub  []ed25519.PublicKey
	priv []ed25519.PrivateKey

	// mu guards known.
	mu sync.Mutex
	// known is the signature memo (sigMemo): a leader's Aggregate over
	// the votes Verify just accepted, its check of its own certificate
	// and a replica's check of its own vote inside one are lookups. Its
	// map is made once with maxSigned(n) entries, so no lookup or record
	// allocates.
	known sigMemo[[ed25519.SignatureSize]byte]
	// verifies counts real ed25519.Verify calls (memo hits excluded).
	verifies atomic.Int64
}

var _ Suite = (*Ed25519Suite)(nil)

// NewEd25519Suite deterministically generates keys for n nodes from seed.
// Deterministic generation keeps multi-process clusters configuration-free:
// every process derives the same PKI from the shared seed.
func NewEd25519Suite(n int, seed int64) *Ed25519Suite {
	rng := rand.New(rand.NewSource(seed))
	s := &Ed25519Suite{
		pub:   make([]ed25519.PublicKey, n),
		priv:  make([]ed25519.PrivateKey, n),
		known: newSigMemo[[ed25519.SignatureSize]byte](maxSigned(n), maxSigned(n)),
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

// Verifications returns how many signatures the suite has checked with
// ed25519 — every Verify, and every component of Aggregate and
// VerifyAggregate, that the memo did not answer.
func (s *Ed25519Suite) Verifications() int64 { return s.verifies.Load() }

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

// Sign records its output in the memo: a signature this suite made is
// one it need not check.
func (es edSigner) Sign(data []byte) Signature {
	s := es.suite
	sig := Signature{Signer: es.id, Bytes: ed25519.Sign(s.priv[es.id], data)}
	if k, ok := s.known.key(data, sig); ok {
		s.mu.Lock()
		s.known.record(k, sig.Signer, data)
		s.mu.Unlock()
	}
	return sig
}

// Verify implements Suite.
func (s *Ed25519Suite) Verify(data []byte, sig Signature) error {
	if int(sig.Signer) < 0 || int(sig.Signer) >= len(s.pub) {
		return fmt.Errorf("%w: %v", ErrUnknownSigner, sig.Signer)
	}
	k, memo := s.known.key(data, sig)
	if memo {
		s.mu.Lock()
		hit := s.known.holds(k, sig.Signer, data)
		s.mu.Unlock()
		if hit {
			return nil
		}
	}
	s.verifies.Add(1)
	if !ed25519.Verify(s.pub[sig.Signer], data, sig.Bytes) {
		return fmt.Errorf("%w: signer %v", ErrBadSignature, sig.Signer)
	}
	if memo {
		s.mu.Lock()
		s.known.record(k, sig.Signer, data)
		s.mu.Unlock()
	}
	return nil
}

// Aggregate implements Suite.
func (s *Ed25519Suite) Aggregate(data []byte, sigs []Signature) (Aggregate, error) {
	return aggregate(s, data, append([]Signature(nil), sigs...), make([]types.NodeID, 0, len(sigs)), make([][]byte, 0, len(sigs)))
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
