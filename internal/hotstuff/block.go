// Package hotstuff implements chained HotStuff, the view-based BFT SMR
// protocol the paper's view synchronization work targets (HotStuff
// introduced the decoupled "PaceMaker" that Lumiere instantiates). One
// block is proposed per view and certified by a QC of 2f+1 votes; a block
// commits when it heads a three-chain of consecutive views. Any pacemaker
// in this repository can drive it through the replica.Engine interface.
package hotstuff

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"lumiere/internal/types"
)

// Hash is a block hash.
type Hash = [32]byte

// GenesisHash anchors every chain; the genesis block has view -1.
var GenesisHash = sha256.Sum256([]byte("lumiere/hotstuff/genesis"))

// Command is one client request carried in a block.
type Command struct {
	ID      uint64
	Payload []byte
}

// Block is a proposal payload: a batch of commands extending a parent.
//
// A block is sealed by its first Encode or HashOf, which compute the
// canonical encoding and its hash once and keep them; from then on the
// exported fields are read-only, and so are the bytes Encode returns. A
// block returned by DecodeBlock is sealed already and aliases the decoded
// input: its encoding is that slice and its payloads are sub-slices of it,
// so the input must not be modified afterwards either.
type Block struct {
	View   types.View
	Parent Hash
	Cmds   []Command

	enc  []byte // canonical encoding, nil until sealed
	hash Hash   // sha256 of enc
}

// ErrBadBlock reports a malformed block encoding.
var ErrBadBlock = errors.New("hotstuff: malformed block")

// Encoded sizes: view, parent and command count open a block; ID and
// payload length open a command.
const (
	blockHeaderLen = 8 + len(Hash{}) + 8
	cmdHeaderLen   = 8 + 8
)

// seal computes the canonical encoding (big-endian, length-prefixed
// fields, so hashes are stable across runtimes) and its hash, once.
func (b *Block) seal() {
	if b.enc != nil {
		return
	}
	size := blockHeaderLen + cmdHeaderLen*len(b.Cmds)
	for i := range b.Cmds {
		size += len(b.Cmds[i].Payload)
	}
	enc := make([]byte, 0, size)
	enc = binary.BigEndian.AppendUint64(enc, uint64(b.View))
	enc = append(enc, b.Parent[:]...)
	enc = binary.BigEndian.AppendUint64(enc, uint64(len(b.Cmds)))
	for i := range b.Cmds {
		enc = binary.BigEndian.AppendUint64(enc, b.Cmds[i].ID)
		enc = binary.BigEndian.AppendUint64(enc, uint64(len(b.Cmds[i].Payload)))
		enc = append(enc, b.Cmds[i].Payload...)
	}
	b.enc, b.hash = enc, sha256.Sum256(enc)
}

// Encode returns the block's canonical serialization. The slice is the
// block's own copy: callers must not modify it.
func (b *Block) Encode() []byte {
	b.seal()
	return b.enc
}

// HashOf returns the block's hash, the SHA-256 of its encoding.
func (b *Block) HashOf() Hash {
	b.seal()
	return b.hash
}

// DecodeBlock parses an encoded block without copying: the block keeps
// data as its encoding and its payloads point into it. Only the canonical
// encoding is accepted — every declared length must be met exactly and no
// byte may follow the last command — so the block's hash is the hash of
// data, and nothing is allocated beyond what len(data) can hold.
func DecodeBlock(data []byte) (*Block, error) {
	if len(data) < blockHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte header", ErrBadBlock, len(data))
	}
	b := &Block{View: types.View(binary.BigEndian.Uint64(data))}
	copy(b.Parent[:], data[8:])
	n := binary.BigEndian.Uint64(data[blockHeaderLen-8:])
	rest := data[blockHeaderLen:]
	if n > uint64(len(rest)/cmdHeaderLen) {
		return nil, fmt.Errorf("%w: %d commands in %d bytes", ErrBadBlock, n, len(rest))
	}
	b.Cmds = make([]Command, n)
	for i := range b.Cmds {
		if len(rest) < cmdHeaderLen {
			return nil, fmt.Errorf("%w: command %d cut short", ErrBadBlock, i)
		}
		id, plen := binary.BigEndian.Uint64(rest), binary.BigEndian.Uint64(rest[8:])
		rest = rest[cmdHeaderLen:]
		if plen > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: %d-byte payload in %d bytes", ErrBadBlock, plen, len(rest))
		}
		b.Cmds[i] = Command{ID: id, Payload: rest[:plen:plen]}
		rest = rest[plen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBlock, len(rest))
	}
	b.enc, b.hash = data, sha256.Sum256(data)
	return b, nil
}
