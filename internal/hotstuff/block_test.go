package hotstuff

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"lumiere/internal/types"
)

func TestBlockRoundTrip(t *testing.T) {
	b := &Block{
		View:   7,
		Parent: GenesisHash,
		Cmds: []Command{
			{ID: 1, Payload: []byte("SET a 1")},
			{ID: 2, Payload: nil},
			{ID: 3, Payload: []byte{0, 0xff, 0x7f}},
		},
	}
	enc := b.Encode()
	got, err := DecodeBlock(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.View != b.View || got.Parent != b.Parent || len(got.Cmds) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range b.Cmds {
		if got.Cmds[i].ID != b.Cmds[i].ID || !bytes.Equal(got.Cmds[i].Payload, b.Cmds[i].Payload) {
			t.Fatalf("cmd %d mismatch", i)
		}
	}
	if got.HashOf() != b.HashOf() {
		t.Fatal("hash changed across round trip")
	}
}

func TestBlockRoundTripQuick(t *testing.T) {
	f := func(view int64, id uint64, payload []byte) bool {
		b := &Block{View: types.View(view), Parent: GenesisHash,
			Cmds: []Command{{ID: id, Payload: payload}}}
		got, err := DecodeBlock(b.Encode())
		if err != nil {
			return false
		}
		return got.HashOf() == b.HashOf()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sampleEncoding is a two-command block's encoding, the base of the
// truncated and padded decoder inputs.
func sampleEncoding() []byte {
	b := &Block{View: 3, Parent: GenesisHash,
		Cmds: []Command{{ID: 1, Payload: []byte("SET a 1")}, {ID: 2, Payload: []byte("abcdef")}}}
	return b.Encode()
}

func TestDecodeGarbage(t *testing.T) {
	enc := sampleEncoding()
	// A header-only frame that claims 2^20 commands.
	claim := make([]byte, blockHeaderLen)
	binary.BigEndian.PutUint64(claim[blockHeaderLen-8:], 1<<20)
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 48),           // absurd command count
		enc[:len(enc)-3],                         // last payload cut short
		append(enc[:len(enc):len(enc)], 0, 0, 0), // bytes after the last command
		claim,
	}
	for i, c := range cases {
		if _, err := DecodeBlock(c); !errors.Is(err, ErrBadBlock) {
			t.Errorf("case %d: garbage decoded (err = %v)", i, err)
		}
	}
	// The decoder reserves what the frame can hold, not what it claims:
	// a reservation for 2^20 commands would be 32 MB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = DecodeBlock(claim)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("decoding a %d-byte frame allocated %d bytes", len(claim), got)
	}
}

// encodeFields serializes a block from its exported fields alone, into a
// fresh buffer: what the block's encoding must be if nobody modified the
// fields, or the bytes they alias, after it was sealed.
func encodeFields(b *Block) []byte {
	return (&Block{View: b.View, Parent: b.Parent, Cmds: b.Cmds}).Encode()
}

// TestDecodedBlockAliasesInput pins the zero-copy contract: a decoded
// block's encoding is the input slice, its payloads point into it with no
// spare capacity, and its hash is the input's.
func TestDecodedBlockAliasesInput(t *testing.T) {
	enc := sampleEncoding()
	b, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Encode(); &got[0] != &enc[0] || len(got) != len(enc) {
		t.Fatal("decoded block does not keep its input as its encoding")
	}
	if b.HashOf() != sha256.Sum256(enc) {
		t.Fatal("decoded block's hash is not the hash of its input")
	}
	if !bytes.Equal(encodeFields(b), enc) {
		t.Fatal("decoded fields do not re-encode to the input")
	}
	p := b.Cmds[0].Payload
	if string(p) != "SET a 1" || cap(p) != len(p) {
		t.Fatalf("payload %q has len %d, cap %d", p, len(p), cap(p))
	}
	if off := blockHeaderLen + cmdHeaderLen; &p[0] != &enc[off] {
		t.Fatal("payload is a copy, not a sub-slice of the input")
	}
}

// TestBlockAllocs gates "once means once": a sealed block hashes and
// encodes without allocating, and decoding allocates the block and its
// command slice, nothing per command.
func TestBlockAllocs(t *testing.T) {
	b := &Block{View: 9, Parent: GenesisHash, Cmds: make([]Command, 256)}
	for i := range b.Cmds {
		b.Cmds[i] = Command{ID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, 80)}
	}
	enc := b.Encode()
	var h Hash
	if n := testing.AllocsPerRun(100, func() { h = b.HashOf() }); n != 0 {
		t.Errorf("HashOf on a sealed block: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { enc = b.Encode() }); n != 0 {
		t.Errorf("Encode on a sealed block: %v allocations, want 0", n)
	}
	var got *Block
	if n := testing.AllocsPerRun(100, func() { got, _ = DecodeBlock(enc) }); n > 3 {
		t.Errorf("DecodeBlock of a 256-command block: %v allocations, want at most 3", n)
	}
	if got.HashOf() != h {
		t.Fatal("hash changed across round trip")
	}
	if n := testing.AllocsPerRun(100, func() { _ = encodeFields(b) }); n > 2 {
		t.Errorf("first Encode of a 256-command block: %v allocations, want at most 2 (the probe block, one pre-sized buffer)", n)
	}
}

func TestHashDistinguishesBlocks(t *testing.T) {
	a := &Block{View: 1, Parent: GenesisHash}
	b := &Block{View: 2, Parent: GenesisHash}
	if a.HashOf() == b.HashOf() {
		t.Fatal("distinct blocks share a hash")
	}
	c := &Block{View: 1, Parent: GenesisHash, Cmds: []Command{{ID: 1}}}
	if a.HashOf() == c.HashOf() {
		t.Fatal("commands not hashed")
	}
}
