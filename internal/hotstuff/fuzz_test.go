package hotstuff

import (
	"bytes"
	"testing"
)

// FuzzDecodeBlock hardens the block codec against malformed wire input:
// it must never panic, it must accept canonical encodings only, and valid
// round-trips must be stable.
func FuzzDecodeBlock(f *testing.F) {
	seed := &Block{
		View:   3,
		Parent: GenesisHash,
		Cmds:   []Command{{ID: 1, Payload: []byte("SET a 1")}, {ID: 2}},
	}
	f.Add(seed.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0}, 100))
	enc := sampleEncoding()
	f.Add(enc[:len(enc)-3])                         // last payload cut short
	f.Add(append(enc[:len(enc):len(enc)], 0, 0, 0)) // bytes after the last command
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		// An accepted input is the canonical encoding of what it
		// decoded to: the block keeps it, and the fields reproduce it.
		if !bytes.Equal(b.Encode(), data) || !bytes.Equal(encodeFields(b), data) {
			t.Fatalf("accepted a non-canonical encoding: % x", data)
		}
		// A successfully decoded block must re-encode to something
		// that decodes to the same hash.
		again, err := DecodeBlock(b.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.HashOf() != b.HashOf() {
			t.Fatal("hash not stable across round trip")
		}
	})
}
