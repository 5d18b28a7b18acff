package nettcp

import (
	"bufio"
	"bytes"
	"sync"
	"testing"
	"time"

	"lumiere/internal/allocgate"
	"lumiere/internal/crypto"
	"lumiere/internal/hotstuff"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/types"
)

// TestFrameAllocs gates the envelope path's allocations. Encoding into
// a reused buffer makes none. Reading and decoding a frame makes the
// frame's fresh buffer and the message: 2 for a signature kind, and 4
// for a certificate kind, whose aggregate adds its signer and component
// slices. A message the conditioner holds and releases makes none once
// its link's delay line has grown.
func TestFrameAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured in full runs")
	}
	sig := crypto.Signature{Signer: 3, Bytes: make([]byte, 64)}
	agg := crypto.Aggregate{
		Signers: []types.NodeID{0, 1, 2},
		Bytes:   [][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64)},
	}
	cases := []struct {
		m   msg.Message
		max float64
	}{
		{&msg.ViewMsg{V: 8, Sig: sig}, 2},
		{&msg.EpochViewMsg{V: 8, Sig: sig}, 2},
		{&msg.Vote{V: 7, Sig: sig}, 2},
		{&msg.Wish{V: 8, Sig: sig}, 2},
		{&msg.Timeout{V: 8, Sig: sig}, 2},
		{&msg.VC{V: 8, Agg: agg}, 4},
		{&msg.EC{V: 8, Agg: agg}, 4},
		{&msg.TC{V: 8, Agg: agg}, 4},
		{&msg.QC{V: 6, Agg: agg}, 4},
	}
	var buf []byte
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	for _, c := range cases {
		var err error
		if n := allocgate.PerRun(t, 100, func() { buf, err = appendFrame(buf[:0], 1, c.m) }); n != 0 || err != nil {
			t.Errorf("encoding %v: %v allocations (err %v), want 0", c.m.Kind(), n, err)
		}
		if n := allocgate.PerRun(t, 100, func() {
			rd.Reset(buf)
			br.Reset(&rd)
			var frame []byte
			if frame, err = readFrame(br); err == nil {
				_, _, err = decodeFrame(frame)
			}
		}); n > c.max || err != nil {
			t.Errorf("reading and decoding %v: %v allocations (err %v), want at most %v", c.m.Kind(), n, err, c.max)
		}
	}

	// A delayed release: every message is held for an hour of the
	// conditioner's clock, and the clock moves an eighth of that per
	// message, so about eight are held at a time and the line both
	// grows and compacts. Nothing drains the queue but the test.
	var clk stillClock
	cond := NewConditioner(network.DelayLink{P: network.Fixed{D: time.Hour}}, 0, 2*time.Hour,
		network.OmissionBudget{}, clk.now, 1)
	var mu sync.Mutex
	tr := New(0, freeAddrs(t, 2), &mu, nopHandler, WithConditioner(cond))
	defer tr.Close()
	p, m := tr.peers[1], cases[0].m
	step := func() {
		cond.apply(tr, p, 1, m)
		clk.advance(time.Hour / 8)
		cond.flush(tr, p)
		for len(p.queue) > 0 {
			<-p.queue
		}
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if n := allocgate.PerRun(t, 1000, step); n != 0 {
		t.Errorf("holding and releasing a message: %v allocations, want 0", n)
	}
	if p.enqueued.Load() == 0 || p.queueDrops.Load() != 0 {
		t.Fatalf("enqueued=%d queueDrops=%d: the line released nothing", p.enqueued.Load(), p.queueDrops.Load())
	}
}

// TestFrameDropsSealedBlock: a Proposal's in-memory block never crosses a
// socket. The frame carries the block's bytes and nothing else, so a
// decoded Proposal has no sealed block and its recipient decodes and
// hashes Block in full.
func TestFrameDropsSealedBlock(t *testing.T) {
	b := &hotstuff.Block{View: 3, Parent: hotstuff.GenesisHash,
		Cmds: []hotstuff.Command{{ID: 9, Payload: []byte("SET k v")}}}
	sent := &msg.Proposal{V: 3, Leader: 1, Block: b.Encode(), Hash: b.HashOf(), Sealed: b}
	frame, err := appendFrame(nil, 1, sent)
	if err != nil {
		t.Fatal(err)
	}
	var rd bytes.Reader
	rd.Reset(frame)
	body, err := readFrame(bufio.NewReader(&rd))
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := decodeFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*msg.Proposal)
	if got.Sealed != nil {
		t.Fatalf("decoded proposal carries a sealed block: %T", got.Sealed)
	}
	if got.V != sent.V || got.Leader != sent.Leader || got.Hash != sent.Hash || !bytes.Equal(got.Block, sent.Block) {
		t.Fatalf("round trip changed the proposal: %+v", got)
	}
	if &got.Block[0] == &sent.Block[0] {
		t.Fatal("decoded Block aliases the sender's encoding")
	}
}
