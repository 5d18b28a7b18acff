// Package msg defines every wire message exchanged by the view
// synchronization protocols and the underlying consensus. All messages are
// O(κ) in the paper's accounting: they carry at most a constant number of
// signatures, certificates and hashes.
package msg

import (
	"fmt"

	"lumiere/internal/crypto"
	"lumiere/internal/types"
)

// Kind discriminates message types.
type Kind uint8

// Message kinds. Enumeration starts at 1 so the zero value is invalid.
const (
	// KindView is a "view v" message: processor p's signed statement
	// that its clock reached c_v, sent to lead(v) (§4 line 30).
	KindView Kind = iota + 1
	// KindVC is a View Certificate: f+1 view-v messages combined by
	// lead(v) and broadcast (§4 lines 32-34).
	KindVC
	// KindEpochView is an "epoch view v" message broadcast when a
	// processor wishes to perform a heavy epoch synchronization.
	KindEpochView
	// KindEC is an Epoch Certificate: 2f+1 epoch-view-v messages.
	KindEC
	// KindTC is a (Lumiere) epoch Timeout Certificate: f+1
	// epoch-view-v messages (§3.5). Cogsworth and NK20 reuse it as
	// their view-entry certificate with protocol-specific thresholds.
	KindTC
	// KindProposal is the underlying protocol's leader proposal.
	KindProposal
	// KindVote is a vote on a proposal, sent to the leader.
	KindVote
	// KindQC carries a Quorum Certificate for a completed view.
	KindQC
	// KindWish is Cogsworth's view-synchronization wish, sent to an
	// aggregation leader.
	KindWish
	// KindTimeout is NK20's all-to-all view timeout message.
	KindTimeout
	// KindRequest is a client command submitted to the SMR layer.
	KindRequest
	// KindBlockFetch asks peers for a certified block by hash (chained
	// HotStuff catch-up after a crash: missed proposals are lost, so a
	// revived replica re-fetches the committed chain).
	KindBlockFetch
	// KindBlockResp answers a BlockFetch with the encoded block and the
	// QC certifying it.
	KindBlockResp
)

var kindNames = map[Kind]string{
	KindView:       "VIEW",
	KindVC:         "VC",
	KindEpochView:  "EPOCHVIEW",
	KindEC:         "EC",
	KindTC:         "TC",
	KindProposal:   "PROPOSAL",
	KindVote:       "VOTE",
	KindQC:         "QC",
	KindWish:       "WISH",
	KindTimeout:    "TIMEOUT",
	KindRequest:    "REQUEST",
	KindBlockFetch: "BLOCKFETCH",
	KindBlockResp:  "BLOCKRESP",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is the interface implemented by all wire messages.
type Message interface {
	// Kind returns the message discriminator.
	Kind() Kind
	// View returns the view the message refers to.
	View() types.View
}

// Domain tags for signed statements, keeping signature domains disjoint.
const (
	DomainView      = "lumiere/view"
	DomainEpochView = "lumiere/epochview"
	DomainVote      = "lumiere/vote"
	DomainWish      = "lumiere/wish"
	DomainTimeout   = "lumiere/timeout"
)

// ---------------------------------------------------------------------------
// View synchronization messages
// ---------------------------------------------------------------------------

// ViewMsg is the value v signed by From (§3.3, §4 line 30).
type ViewMsg struct {
	V   types.View
	Sig crypto.Signature
}

// Kind implements Message.
func (m *ViewMsg) Kind() Kind { return KindView }

// View implements Message.
func (m *ViewMsg) View() types.View { return m.V }

// From returns the sender recorded in the signature.
func (m *ViewMsg) From() types.NodeID { return m.Sig.Signer }

// ViewStatement is the byte string a ViewMsg signs.
func ViewStatement(v types.View) []byte { return crypto.Statement(DomainView, v, nil) }

// VC is a View Certificate for an initial view: f+1 view-v messages
// combined into a single threshold signature (§4 lines 32-34).
type VC struct {
	V   types.View
	Agg crypto.Aggregate
}

// Kind implements Message.
func (m *VC) Kind() Kind { return KindVC }

// View implements Message.
func (m *VC) View() types.View { return m.V }

// EpochViewMsg is an epoch view v message (§4 "Forming ECs").
type EpochViewMsg struct {
	V   types.View
	Sig crypto.Signature
}

// Kind implements Message.
func (m *EpochViewMsg) Kind() Kind { return KindEpochView }

// View implements Message.
func (m *EpochViewMsg) View() types.View { return m.V }

// From returns the sender recorded in the signature.
func (m *EpochViewMsg) From() types.NodeID { return m.Sig.Signer }

// EpochViewStatement is the byte string an EpochViewMsg signs.
func EpochViewStatement(v types.View) []byte { return crypto.Statement(DomainEpochView, v, nil) }

// EC is an Epoch Certificate: 2f+1 epoch-view-v messages (§4 "ECs and
// TCs"). Processors assemble it locally from broadcast EpochViewMsgs; it
// is also forwardable as a compact certificate.
type EC struct {
	V   types.View
	Agg crypto.Aggregate
}

// Kind implements Message.
func (m *EC) Kind() Kind { return KindEC }

// View implements Message.
func (m *EC) View() types.View { return m.V }

// TC is a Timeout Certificate: f+1 epoch-view-v messages for Lumiere's
// epoch views (§3.5); Cogsworth and NK20 reuse the type for their view
// certificates (with wish/timeout statements and their own thresholds).
type TC struct {
	V   types.View
	Agg crypto.Aggregate
}

// Kind implements Message.
func (m *TC) Kind() Kind { return KindTC }

// View implements Message.
func (m *TC) View() types.View { return m.V }

// Wish is Cogsworth's request to synchronize into view V, sent to an
// aggregation leader.
type Wish struct {
	V   types.View
	Sig crypto.Signature
}

// Kind implements Message.
func (m *Wish) Kind() Kind { return KindWish }

// View implements Message.
func (m *Wish) View() types.View { return m.V }

// From returns the sender recorded in the signature.
func (m *Wish) From() types.NodeID { return m.Sig.Signer }

// WishStatement is the byte string a Wish signs.
func WishStatement(v types.View) []byte { return crypto.Statement(DomainWish, v, nil) }

// Timeout is NK20's all-to-all view-synchronization message.
type Timeout struct {
	V   types.View
	Sig crypto.Signature
}

// Kind implements Message.
func (m *Timeout) Kind() Kind { return KindTimeout }

// View implements Message.
func (m *Timeout) View() types.View { return m.V }

// From returns the sender recorded in the signature.
func (m *Timeout) From() types.NodeID { return m.Sig.Signer }

// TimeoutStatement is the byte string a Timeout signs.
func TimeoutStatement(v types.View) []byte { return crypto.Statement(DomainTimeout, v, nil) }

// ---------------------------------------------------------------------------
// Underlying-protocol messages
// ---------------------------------------------------------------------------

// QC is a Quorum Certificate: 2f+1 votes testifying that view V completed
// (§2 "Quorum certificates"). BlockHash is zero for the plain view core
// and carries the certified block hash for chained HotStuff.
type QC struct {
	V         types.View
	BlockHash [32]byte
	Agg       crypto.Aggregate
}

// Kind implements Message.
func (m *QC) Kind() Kind { return KindQC }

// View implements Message.
func (m *QC) View() types.View { return m.V }

// VoteStatement is the byte string a Vote signs and a QC certifies.
func VoteStatement(v types.View, blockHash [32]byte) []byte {
	return crypto.Statement(DomainVote, v, blockHash[:])
}

// StmtScratch is a reusable statement buffer for the signing hot path:
// each method rebuilds the corresponding *Statement encoding in place
// and returns it, so engines that keep one StmtScratch per instance
// sign and verify without per-call statement allocations. The returned
// slice is valid until the next method call; none of its consumers
// (Suite.Sign/Verify/Aggregate/VerifyAggregate) retain it.
type StmtScratch struct{ buf []byte }

// View rebuilds ViewStatement(v) in the scratch.
func (s *StmtScratch) View(v types.View) []byte {
	s.buf = crypto.AppendStatement(s.buf[:0], DomainView, v, nil)
	return s.buf
}

// EpochView rebuilds EpochViewStatement(v) in the scratch.
func (s *StmtScratch) EpochView(v types.View) []byte {
	s.buf = crypto.AppendStatement(s.buf[:0], DomainEpochView, v, nil)
	return s.buf
}

// Wish rebuilds WishStatement(v) in the scratch.
func (s *StmtScratch) Wish(v types.View) []byte {
	s.buf = crypto.AppendStatement(s.buf[:0], DomainWish, v, nil)
	return s.buf
}

// Timeout rebuilds TimeoutStatement(v) in the scratch.
func (s *StmtScratch) Timeout(v types.View) []byte {
	s.buf = crypto.AppendStatement(s.buf[:0], DomainTimeout, v, nil)
	return s.buf
}

// Vote rebuilds VoteStatement(v, *blockHash) in the scratch.
func (s *StmtScratch) Vote(v types.View, blockHash *[32]byte) []byte {
	s.buf = crypto.AppendStatement(s.buf[:0], DomainVote, v, blockHash[:])
	return s.buf
}

// Proposal is the leader's per-view proposal. Justify is the QC the
// proposal extends (nil for the plain view core's first views). Block is
// the serialized block payload for HotStuff, nil for the plain view core.
//
// Sealed optionally carries the sender's in-memory block (a sealed
// *hotstuff.Block) so that in-process recipients can skip decoding Block.
// A recipient may use it only when Block is that block's own encoding by
// identity — the same backing array and length; anything else is judged
// by its bytes. No wire codec encodes it.
type Proposal struct {
	V       types.View
	Leader  types.NodeID
	Justify *QC
	Block   []byte
	Hash    [32]byte
	Sealed  any
}

// Kind implements Message.
func (m *Proposal) Kind() Kind { return KindProposal }

// View implements Message.
func (m *Proposal) View() types.View { return m.V }

// Vote is a replica's vote on a proposal, sent to the leader.
type Vote struct {
	V         types.View
	BlockHash [32]byte
	Sig       crypto.Signature
}

// Kind implements Message.
func (m *Vote) Kind() Kind { return KindVote }

// View implements Message.
func (m *Vote) View() types.View { return m.V }

// From returns the sender recorded in the signature.
func (m *Vote) From() types.NodeID { return m.Sig.Signer }

// Request is a client command for the SMR layer.
type Request struct {
	ID      uint64
	Payload []byte
}

// Kind implements Message.
func (m *Request) Kind() Kind { return KindRequest }

// View implements Message; requests are view-independent.
func (m *Request) View() types.View { return 0 }

// BlockFetch asks peers for the certified block with hash H. Sent by a
// replica whose committed chain has a gap (it crashed while proposals
// were being delivered, and the simulator's crash model loses them). The
// zero H asks each peer for the block of its highest QC: a replica back
// from a downtime learns the chain's head that way.
type BlockFetch struct {
	H       [32]byte
	FromRaw types.NodeID
}

// Kind implements Message.
func (m *BlockFetch) Kind() Kind { return KindBlockFetch }

// View implements Message; fetches are view-independent.
func (m *BlockFetch) View() types.View { return 0 }

// From returns the sender.
func (m *BlockFetch) From() types.NodeID { return m.FromRaw }

// BlockResp answers a BlockFetch: Block is the canonical encoding of the
// requested block and Cert a QC certifying its hash, so the receiver can
// verify the response without trusting the sender. Only certified blocks
// are ever served.
type BlockResp struct {
	Block   []byte
	Cert    *QC
	FromRaw types.NodeID
}

// Kind implements Message.
func (m *BlockResp) Kind() Kind { return KindBlockResp }

// View implements Message: the view of the certifying QC.
func (m *BlockResp) View() types.View {
	if m.Cert == nil {
		return 0
	}
	return m.Cert.V
}

// From returns the sender.
func (m *BlockResp) From() types.NodeID { return m.FromRaw }

// Compile-time interface compliance checks.
var (
	_ Message = (*ViewMsg)(nil)
	_ Message = (*VC)(nil)
	_ Message = (*EpochViewMsg)(nil)
	_ Message = (*EC)(nil)
	_ Message = (*TC)(nil)
	_ Message = (*QC)(nil)
	_ Message = (*Proposal)(nil)
	_ Message = (*Vote)(nil)
	_ Message = (*Wish)(nil)
	_ Message = (*Timeout)(nil)
	_ Message = (*Request)(nil)
	_ Message = (*BlockFetch)(nil)
	_ Message = (*BlockResp)(nil)
)

// wordBytes is the byte width of one accounting word: κ = 256 bits, the
// size of a hash, signature share, or threshold certificate under the §2
// assumptions. Payload bytes are charged at this granularity.
const wordBytes = 32

// PayloadWords converts a payload byte length into whole accounting
// words, rounding up (any non-empty payload costs at least one word).
func PayloadWords(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + wordBytes - 1) / wordBytes
}

// Words returns a message's size in words, the unit of the paper's
// communication-complexity accounting: one word holds a single κ-bit
// quantity — a view number, a signature, a threshold certificate (O(κ)
// by the §2 threshold-signature assumption), or a hash. Words charges
// the bounded integers a message carries as well as its cryptographic
// material, so the measured word counts track the constants of Table 1.
//
// Messages that carry block payload (SMR Proposals and client Requests)
// are additionally charged ⌈len(payload)/wordBytes⌉ words, so the
// accounting separates the protocol's O(κ) view-synchronization traffic
// from the data plane it moves. View-synchronization messages themselves
// never carry payload, so Table 1 word counts are unaffected.
//
// The per-kind model:
//
//	ViewMsg/EpochViewMsg/Wish/Timeout  view + signature            = 2
//	VC/EC/TC                           view + threshold signature  = 2
//	Vote                               view + hash + signature     = 3
//	QC                                 view + hash + threshold sig = 3
//	Proposal                           view‖leader + hash [+ QC]   = 2 or 5, + ⌈|Block|/32⌉
//	Request                            id + payload handle         = 2, + ⌈|Payload|/32⌉
//	BlockFetch                         hash + sender               = 2
//	BlockResp                          sender + QC                 = 4, + ⌈|Block|/32⌉
func Words(m Message) int {
	switch mm := m.(type) {
	case *ViewMsg, *EpochViewMsg, *Wish, *Timeout:
		return 2
	case *VC, *EC, *TC:
		return 2
	case *Vote:
		return 3
	case *QC:
		return 3
	case *Proposal:
		w := 2
		if mm.Justify != nil {
			w = 5
		}
		return w + PayloadWords(len(mm.Block))
	case *Request:
		return 2 + PayloadWords(len(mm.Payload))
	case *BlockFetch:
		return 2
	case *BlockResp:
		return 4 + PayloadWords(len(mm.Block))
	default:
		return 1
	}
}
