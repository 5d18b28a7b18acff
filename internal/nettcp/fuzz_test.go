package nettcp

import (
	"bytes"
	"encoding/gob"
	"reflect"
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

// FuzzMessageGob fuzzes the wire format: the gob envelope encode/decode
// round-trip used by the TCP transport (writeLoop/readLoop), seeded with
// every message kind. It asserts the decode preserves the envelope
// sender and the message's kind and view, and that one round-trip
// reaches gob's canonical fixed point (decode∘encode is the identity
// from then on — no field is silently dropped or mangled).
func FuzzMessageGob(f *testing.F) {
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
		env := envelope{From: types.NodeID(int(kindRaw) % 9), Msg: m}

		// Encode/decode exactly as writeLoop and readLoop do.
		var wire bytes.Buffer
		if err := gob.NewEncoder(&wire).Encode(&env); err != nil {
			t.Fatalf("encode %v: %v", kind, err)
		}
		var got envelope
		if err := gob.NewDecoder(&wire).Decode(&got); err != nil {
			t.Fatalf("decode %v: %v", kind, err)
		}
		if got.Msg == nil {
			t.Fatalf("decoded nil message for kind %v", kind)
		}
		if got.From != env.From {
			t.Fatalf("sender changed: %v -> %v", env.From, got.From)
		}
		if got.Msg.Kind() != m.Kind() {
			t.Fatalf("kind changed: %v -> %v", m.Kind(), got.Msg.Kind())
		}
		if got.Msg.View() != m.View() {
			t.Fatalf("view changed: %v -> %v", m.View(), got.Msg.View())
		}

		// One round-trip must reach the canonical fixed point: encoding
		// the decoded envelope and round-tripping again must reproduce
		// both the bytes and the value.
		var wire2 bytes.Buffer
		if err := gob.NewEncoder(&wire2).Encode(&got); err != nil {
			t.Fatalf("re-encode %v: %v", kind, err)
		}
		canonical := append([]byte(nil), wire2.Bytes()...)
		var got2 envelope
		if err := gob.NewDecoder(&wire2).Decode(&got2); err != nil {
			t.Fatalf("re-decode %v: %v", kind, err)
		}
		var wire3 bytes.Buffer
		if err := gob.NewEncoder(&wire3).Encode(&got2); err != nil {
			t.Fatalf("re-re-encode %v: %v", kind, err)
		}
		if !bytes.Equal(canonical, wire3.Bytes()) {
			t.Fatalf("gob round-trip of %v is not a fixed point", kind)
		}
		if !reflect.DeepEqual(got.Msg, got2.Msg) {
			t.Fatalf("message mutated across round-trips:\n%#v\nvs\n%#v", got.Msg, got2.Msg)
		}
	})
}
