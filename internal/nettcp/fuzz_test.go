package nettcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/types"
)

// fuzzSig derives a signature from fuzz bytes.
func fuzzSig(data []byte) crypto.Signature {
	return crypto.Signature{
		Signer: types.NodeID(len(data) % 31),
		Bytes:  append([]byte(nil), data...),
	}
}

// fuzzAgg derives an aggregate (sorted, duplicate-free signers with
// parallel component signatures) from fuzz bytes.
func fuzzAgg(data []byte) crypto.Aggregate {
	k := 1 + len(data)%4
	agg := crypto.Aggregate{
		Signers: make([]types.NodeID, k),
		Bytes:   make([][]byte, k),
	}
	for i := 0; i < k; i++ {
		agg.Signers[i] = types.NodeID(i)
		component := append([]byte{byte(i)}, data...)
		agg.Bytes[i] = component
	}
	return agg
}

// buildFuzzMessage constructs a message of the given kind whose fields
// are derived from the raw fuzz input.
func buildFuzzMessage(kind msg.Kind, v types.View, data []byte) msg.Message {
	var hash [32]byte
	copy(hash[:], data)
	switch kind {
	case msg.KindView:
		return &msg.ViewMsg{V: v, Sig: fuzzSig(data)}
	case msg.KindVC:
		return &msg.VC{V: v, Agg: fuzzAgg(data)}
	case msg.KindEpochView:
		return &msg.EpochViewMsg{V: v, Sig: fuzzSig(data)}
	case msg.KindEC:
		return &msg.EC{V: v, Agg: fuzzAgg(data)}
	case msg.KindTC:
		return &msg.TC{V: v, Agg: fuzzAgg(data)}
	case msg.KindProposal:
		p := &msg.Proposal{V: v, Leader: types.NodeID(len(data) % 7), Block: append([]byte(nil), data...), Hash: hash}
		if len(data)%2 == 0 {
			p.Justify = &msg.QC{V: v - 1, BlockHash: hash, Agg: fuzzAgg(data)}
		}
		return p
	case msg.KindVote:
		return &msg.Vote{V: v, BlockHash: hash, Sig: fuzzSig(data)}
	case msg.KindQC:
		return &msg.QC{V: v, BlockHash: hash, Agg: fuzzAgg(data)}
	case msg.KindWish:
		return &msg.Wish{V: v, Sig: fuzzSig(data)}
	case msg.KindTimeout:
		return &msg.Timeout{V: v, Sig: fuzzSig(data)}
	case msg.KindRequest:
		return &msg.Request{ID: uint64(len(data)), Payload: append([]byte(nil), data...)}
	case msg.KindBlockFetch:
		return &msg.BlockFetch{H: hash, FromRaw: types.NodeID(len(data) % 7)}
	case msg.KindBlockResp:
		r := &msg.BlockResp{Block: append([]byte(nil), data...), FromRaw: types.NodeID(len(data) % 7)}
		if len(data)%2 == 1 {
			r.Cert = &msg.QC{V: v, BlockHash: hash, Agg: fuzzAgg(data)}
		}
		return r
	default:
		return nil
	}
}

// FuzzFrameDecode fuzzes the wire format, seeded with every message
// kind. Each input is used twice:
//
//   - as a message: for every kind buildFuzzMessage builds, a frame read
//     back from a stream decodes to the same sender and message
//     (decode∘encode is the identity) and re-encodes to the same bytes;
//   - as a frame body: arbitrary bytes decode to a message or an error,
//     never a panic; an accepted body is canonical (it re-encodes to
//     itself); and decoding allocates no more than a fixed multiple of
//     the body's length, because every count is checked against the
//     bytes left before anything is allocated for it.
func FuzzFrameDecode(f *testing.F) { fuzzFrames(f) }

// FuzzMessageGob is the wire-format fuzz target's name from when the
// codec was encoding/gob. It runs FuzzFrameDecode's seeds and body, so
// selections by the old name keep running the same checks.
func FuzzMessageGob(f *testing.F) { fuzzFrames(f) }

// decodeAllocsWithin reports whether decodeFrame(body) allocates at most
// limit heap bytes. It measures up to three calls and passes on the
// first within the limit, which discounts what other goroutines
// allocate meanwhile.
func decodeAllocsWithin(body []byte, limit uint64) (bool, uint64) {
	var n uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeFrame(body)
		runtime.ReadMemStats(&after)
		if n = after.TotalAlloc - before.TotalAlloc; n <= limit {
			return true, n
		}
	}
	return false, n
}

func fuzzFrames(f *testing.F) {
	for k := msg.KindView; k <= msg.KindBlockResp; k++ {
		f.Add(uint8(k), int64(7), []byte{1, 2, 3, 4, 5})
		f.Add(uint8(k), int64(0), []byte{})
		f.Add(uint8(k), int64(-1), []byte{0xff})
	}
	nKinds := uint8(msg.KindBlockResp)
	f.Fuzz(func(t *testing.T, kindRaw uint8, viewRaw int64, data []byte) {
		kind := msg.Kind(kindRaw%nKinds + 1)
		m := buildFuzzMessage(kind, types.View(viewRaw), data)
		if m == nil {
			t.Fatalf("no builder for kind %v", kind)
		}
		from := types.NodeID(int(kindRaw) % 9)
		wire, err := appendFrame(nil, from, m)
		if err != nil {
			t.Fatalf("encode %v: %v", kind, err)
		}
		frame, err := readFrame(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("read %v frame: %v", kind, err)
		}
		gotFrom, got, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("decode %v: %v", kind, err)
		}
		if gotFrom != from {
			t.Fatalf("sender changed: %v -> %v", from, gotFrom)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%v changed on the wire:\n%#v\nvs\n%#v", kind, m, got)
		}
		if again, _ := appendFrame(nil, gotFrom, got); !bytes.Equal(again, wire) {
			t.Fatalf("%v re-encodes to different bytes", kind)
		}

		// Worst case per 4 body bytes: a 4-byte length prefix that makes
		// the decoder store a 24-byte slice header; plus the message
		// structs and an error value.
		if ok, n := decodeAllocsWithin(data, uint64(8*len(data)+512)); !ok {
			t.Fatalf("decoding a %d-byte body allocated %d bytes", len(data), n)
		}
		from, m, err = decodeFrame(data)
		if err != nil {
			return
		}
		wire, err = appendFrame(nil, from, m)
		if err != nil {
			t.Fatalf("re-encode accepted %v: %v", m.Kind(), err)
		}
		if _, n := binary.Uvarint(wire); !bytes.Equal(wire[n:], data) {
			t.Fatalf("accepted a non-canonical %v body", m.Kind())
		}
	})
}
