package nettcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/types"
)

// The wire format. A frame is a uvarint body length, at most maxFrame,
// followed by the body:
//
//	kind u8 | from u32 | the message's fields in declaration order
//
// Integers are big-endian and fixed-width: a View or a Request ID is 8
// bytes, a NodeID 4. A hash is its 32 bytes. A byte string is a u32
// length and its bytes; a signature is its signer and its byte string.
// An aggregate is a u32 signer count and the signers, then a u32
// component count and the components. An optional certificate (Proposal.Justify,
// BlockResp.Cert) is a presence byte, 0 or 1, and the QC if 1. Empty
// byte strings and aggregates decode as nil.
//
// The encoding is canonical: decodeFrame accepts exactly the bodies
// appendFrame produces, so a decoded frame re-encodes to the same bytes.

// maxFrame caps a frame body in bytes. A larger frame is never sent
// (the write loop counts it as a WriteDrop) and never read (the reader
// counts a decode error and drops the connection).
const maxFrame = 4 << 20

// lenPrefixMax is the widest uvarint a body length up to maxFrame needs.
const lenPrefixMax = binary.MaxVarintLen32

var (
	errFrameTooLarge = fmt.Errorf("nettcp: frame body over %d bytes", maxFrame)
	errUnknownType   = errors.New("nettcp: message type has no wire encoding")
)

// appendFrame appends m's frame, sent by from, to dst. It allocates only
// when dst must grow. On error dst is returned unchanged.
func appendFrame(dst []byte, from types.NodeID, m msg.Message) ([]byte, error) {
	start := len(dst)
	// Encode the body behind room for the widest length prefix, then
	// write the prefix and close the gap.
	dst = append(dst, make([]byte, lenPrefixMax)...)
	dst = append(dst, byte(m.Kind()))
	dst = appendU32(dst, uint32(from))
	dst, ok := appendFields(dst, m)
	if !ok {
		return dst[:start], errUnknownType
	}
	body := len(dst) - start - lenPrefixMax
	if body > maxFrame {
		return dst[:start], errFrameTooLarge
	}
	n := binary.PutUvarint(dst[start:], uint64(body))
	copy(dst[start+n:], dst[start+lenPrefixMax:])
	return dst[:len(dst)-lenPrefixMax+n], nil
}

// appendFields appends m's fields, reporting false for a type outside
// the 13 message kinds.
func appendFields(b []byte, m msg.Message) ([]byte, bool) {
	switch m := m.(type) {
	case *msg.ViewMsg:
		return appendSig(appendU64(b, uint64(m.V)), &m.Sig), true
	case *msg.VC:
		return appendAgg(appendU64(b, uint64(m.V)), &m.Agg), true
	case *msg.EpochViewMsg:
		return appendSig(appendU64(b, uint64(m.V)), &m.Sig), true
	case *msg.EC:
		return appendAgg(appendU64(b, uint64(m.V)), &m.Agg), true
	case *msg.TC:
		return appendAgg(appendU64(b, uint64(m.V)), &m.Agg), true
	case *msg.Proposal:
		b = appendU32(appendU64(b, uint64(m.V)), uint32(m.Leader))
		b = appendBytes(appendOptQC(b, m.Justify), m.Block)
		return append(b, m.Hash[:]...), true
	case *msg.Vote:
		b = append(appendU64(b, uint64(m.V)), m.BlockHash[:]...)
		return appendSig(b, &m.Sig), true
	case *msg.QC:
		return appendQC(b, m), true
	case *msg.Wish:
		return appendSig(appendU64(b, uint64(m.V)), &m.Sig), true
	case *msg.Timeout:
		return appendSig(appendU64(b, uint64(m.V)), &m.Sig), true
	case *msg.Request:
		return appendBytes(appendU64(b, m.ID), m.Payload), true
	case *msg.BlockFetch:
		return appendU32(append(b, m.H[:]...), uint32(m.FromRaw)), true
	case *msg.BlockResp:
		b = appendOptQC(appendBytes(b, m.Block), m.Cert)
		return appendU32(b, uint32(m.FromRaw)), true
	default:
		return b, false
	}
}

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendBytes(b, p []byte) []byte { return append(appendU32(b, uint32(len(p))), p...) }

func appendSig(b []byte, s *crypto.Signature) []byte {
	return appendBytes(appendU32(b, uint32(s.Signer)), s.Bytes)
}

func appendAgg(b []byte, a *crypto.Aggregate) []byte {
	b = appendU32(b, uint32(len(a.Signers)))
	for _, s := range a.Signers {
		b = appendU32(b, uint32(s))
	}
	b = appendU32(b, uint32(len(a.Bytes)))
	for _, c := range a.Bytes {
		b = appendBytes(b, c)
	}
	return b
}

func appendQC(b []byte, q *msg.QC) []byte {
	b = append(appendU64(b, uint64(q.V)), q.BlockHash[:]...)
	return appendAgg(b, &q.Agg)
}

func appendOptQC(b []byte, q *msg.QC) []byte {
	if q == nil {
		return append(b, 0)
	}
	return appendQC(append(b, 1), q)
}

// readFrame reads one frame body into a fresh buffer of exactly its
// declared length. The buffer is never reused: decoded messages alias
// it. io.EOF means the stream ended cleanly between frames.
func readFrame(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("nettcp: %d-byte frame body over the %d cap", n, maxFrame)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the length arrived, the body did not
		}
		return nil, err
	}
	return frame, nil
}

// decodeFrame parses a frame body. It is strict: an unknown kind, a
// declared count or length the rest of the body cannot hold, a presence
// byte other than 0 or 1, and trailing bytes are all errors, and counts
// are checked before anything is allocated for them. Byte fields
// (signatures, Proposal.Block, Request.Payload, BlockResp.Block) are
// capped sub-slices of frame, not copies.
func decodeFrame(frame []byte) (types.NodeID, msg.Message, error) {
	r := frameReader{b: frame}
	kind := msg.Kind(r.u8())
	from := r.node()
	var m msg.Message
	switch kind {
	case msg.KindView:
		m = &msg.ViewMsg{V: r.view(), Sig: r.sig()}
	case msg.KindVC:
		m = &msg.VC{V: r.view(), Agg: r.agg()}
	case msg.KindEpochView:
		m = &msg.EpochViewMsg{V: r.view(), Sig: r.sig()}
	case msg.KindEC:
		m = &msg.EC{V: r.view(), Agg: r.agg()}
	case msg.KindTC:
		m = &msg.TC{V: r.view(), Agg: r.agg()}
	case msg.KindProposal:
		m = &msg.Proposal{V: r.view(), Leader: r.node(), Justify: r.optQC(),
			Block: r.bytes(), Hash: r.hash()}
	case msg.KindVote:
		m = &msg.Vote{V: r.view(), BlockHash: r.hash(), Sig: r.sig()}
	case msg.KindQC:
		m = r.qc()
	case msg.KindWish:
		m = &msg.Wish{V: r.view(), Sig: r.sig()}
	case msg.KindTimeout:
		m = &msg.Timeout{V: r.view(), Sig: r.sig()}
	case msg.KindRequest:
		m = &msg.Request{ID: r.u64(), Payload: r.bytes()}
	case msg.KindBlockFetch:
		m = &msg.BlockFetch{H: r.hash(), FromRaw: r.node()}
	case msg.KindBlockResp:
		m = &msg.BlockResp{Block: r.bytes(), Cert: r.optQC(), FromRaw: r.node()}
	default:
		r.fail("unknown kind %d", kind)
	}
	if len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	return from, m, nil
}

// frameReader consumes a frame body front to back. The first error
// sticks and empties the rest, so every later read returns zero values.
// (Composite literals evaluate their reads left to right, which is what
// lets decodeFrame read fields in declaration order inside them.)
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("nettcp: bad frame: "+format, args...)
	}
	r.b = nil
}

// take returns the next n bytes as a capped sub-slice of the frame.
func (r *frameReader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail("%d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *frameReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *frameReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (r *frameReader) view() types.View   { return types.View(r.u64()) }
func (r *frameReader) node() types.NodeID { return types.NodeID(r.u32()) }

func (r *frameReader) hash() (h [32]byte) {
	copy(h[:], r.take(32))
	return h
}

func (r *frameReader) bytes() []byte {
	if n := r.u32(); n > 0 {
		return r.take(uint64(n))
	}
	return nil
}

// count reads a declared element count and checks that the rest of the
// body can hold that many 4-byte elements (a signer, or a component's
// length) before the caller allocates for them.
func (r *frameReader) count() int {
	n := r.u32()
	if uint64(n) > uint64(len(r.b)/4) {
		r.fail("%d elements in %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *frameReader) sig() crypto.Signature {
	return crypto.Signature{Signer: r.node(), Bytes: r.bytes()}
}

func (r *frameReader) agg() (a crypto.Aggregate) {
	if k := r.count(); k > 0 {
		a.Signers = make([]types.NodeID, k)
		for i := range a.Signers {
			a.Signers[i] = r.node()
		}
	}
	if k := r.count(); k > 0 {
		a.Bytes = make([][]byte, k)
		for i := range a.Bytes {
			a.Bytes[i] = r.bytes()
		}
	}
	return a
}

func (r *frameReader) qc() *msg.QC {
	return &msg.QC{V: r.view(), BlockHash: r.hash(), Agg: r.agg()}
}

func (r *frameReader) optQC() *msg.QC {
	switch r.u8() {
	case 0:
		return nil
	case 1:
		return r.qc()
	default:
		r.fail("presence byte not 0 or 1")
		return nil
	}
}
