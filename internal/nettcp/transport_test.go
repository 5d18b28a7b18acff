package nettcp

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// recorder is a Handler that appends every delivery under its own lock
// (deliveries already run under the node lock; the recorder's lock lets
// the test goroutine read concurrently).
type recorder struct {
	mu    sync.Mutex
	froms []types.NodeID
	msgs  []msg.Message
}

func (r *recorder) Deliver(from types.NodeID, m msg.Message) {
	r.mu.Lock()
	r.froms = append(r.froms, from)
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func (r *recorder) snapshot() []msg.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]msg.Message(nil), r.msgs...)
}

var nopHandler = network.HandlerFunc(func(types.NodeID, msg.Message) {})

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSelfSendOrdering checks the simulator's self-delivery convention on
// the TCP transport: a node's messages to itself arrive in send order.
// (A transport that spawns one goroutine per self-send reorders under
// load and fails this.)
func TestSelfSendOrdering(t *testing.T) {
	var mu sync.Mutex
	rec := &recorder{}
	tr := New(0, []string{"127.0.0.1:0"}, &mu, rec)
	defer tr.Close()
	const total = 2000
	for i := 0; i < total; i++ {
		tr.Send(0, &msg.ViewMsg{V: types.View(i)})
	}
	waitFor(t, 10*time.Second, "self deliveries", func() bool { return rec.count() == total })
	for i, m := range rec.snapshot() {
		if v := m.(*msg.ViewMsg).V; v != types.View(i) {
			t.Fatalf("delivery %d: got view %v (self-sends reordered)", i, v)
		}
	}
	if got := tr.Stats().SelfDelivered; got != total {
		t.Fatalf("SelfDelivered = %d, want %d", got, total)
	}
}

// TestCloseQuiescesDuringTraffic closes a transport while senders hammer
// it from several goroutines and checks the Close contract: once Close
// returns, no handler call is in flight and none follows. It runs with
// and without conditioners that hold every message in the delay line
// for up to 2ms, so senders, the lines' timers and Close meet.
func TestCloseQuiescesDuringTraffic(t *testing.T) {
	for _, delayed := range []bool{false, true} {
		name := "direct"
		if delayed {
			name = "delay-line"
		}
		t.Run(name, func(t *testing.T) { closeDuringTraffic(t, delayed) })
	}
}

func closeDuringTraffic(t *testing.T, delayed bool) {
	start := time.Now()
	opts := func(seed int64) []Option {
		if !delayed {
			return nil
		}
		jitter := network.DelayLink{P: network.Uniform{Max: 2 * time.Millisecond}}
		now := func() types.Time { return types.Time(time.Since(start)) }
		return []Option{WithConditioner(NewConditioner(jitter, 0, time.Second, network.OmissionBudget{}, now, seed))}
	}
	addrs := freeAddrs(t, 2)
	var muA, muB sync.Mutex
	var closedA, after atomic.Int64
	handlerA := network.HandlerFunc(func(types.NodeID, msg.Message) {
		if closedA.Load() != 0 {
			after.Add(1)
		}
	})
	a := New(0, addrs, &muA, handlerA, opts(1)...)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	b := New(1, addrs, &muB, &recorder{}, opts(2)...)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a.Send(0, &msg.ViewMsg{V: types.View(i)})
				a.Send(1, &msg.Wish{V: types.View(i)})
				b.Send(0, &msg.Timeout{V: types.View(i)})
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	a.Close()
	closedA.Store(1)
	close(stop)
	wg.Wait()
	time.Sleep(50 * time.Millisecond)
	if n := after.Load(); n != 0 {
		t.Fatalf("%d handler calls after Close returned", n)
	}
	if delayed && a.Stats().Peers[1].Delayed == 0 {
		t.Fatal("no message went through the delay line")
	}
}

// TestRedialAfterPeerRestart kills a peer, restarts it on the same
// address, and checks the write loop re-dials and delivers again —
// with the reconnection visible in the stats instead of silent.
func TestRedialAfterPeerRestart(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var muA, muB1 sync.Mutex
	a := New(0, addrs, &muA, nopHandler)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	recB1 := &recorder{}
	b1 := New(1, addrs, &muB1, recB1)
	if err := b1.Start(); err != nil {
		t.Fatal(err)
	}
	a.Send(1, &msg.ViewMsg{V: 1})
	waitFor(t, 10*time.Second, "first delivery", func() bool { return recB1.count() >= 1 })
	b1.Close()

	// Restart the peer on the same address (retry until the port frees).
	var muB2 sync.Mutex
	recB2 := &recorder{}
	var b2 *Transport
	deadline := time.Now().Add(5 * time.Second)
	for {
		b2 = New(1, addrs, &muB2, recB2)
		if err := b2.Start(); err == nil {
			break
		}
		b2.Close()
		if time.Now().After(deadline) {
			t.Fatal("could not rebind peer address")
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer b2.Close()

	// Keep sending until the write loop notices the dead connection,
	// re-dials, and a message lands on the restarted peer.
	waitFor(t, 15*time.Second, "delivery after restart", func() bool {
		a.Send(1, &msg.ViewMsg{V: 2})
		time.Sleep(10 * time.Millisecond)
		return recB2.count() >= 1
	})
	ps := a.Stats().Peers[1]
	if ps.Redials+ps.Resends+ps.DialFails == 0 {
		t.Errorf("no redial activity recorded after peer restart: %+v", ps)
	}
}

// TestQueueOverflowCounted fills a peer queue with no write loop
// draining it and checks the overflow surfaces as QueueDrops rather
// than silence.
func TestQueueOverflowCounted(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var mu sync.Mutex
	tr := New(0, addrs, &mu, nopHandler)
	defer tr.Close()
	const extra = 32
	for i := 0; i < peerQueueSize+extra; i++ {
		tr.Send(1, &msg.Wish{V: types.View(i)})
	}
	ps := tr.Stats().Peers[1]
	if ps.Enqueued != peerQueueSize || ps.QueueDrops != extra {
		t.Fatalf("enqueued=%d queueDrops=%d, want %d/%d",
			ps.Enqueued, ps.QueueDrops, peerQueueSize, extra)
	}
}

// TestDecodeErrorCounted feeds a listener a corrupt stream, then a
// length prefix over the frame cap, and checks each abandoned
// connection is counted instead of swallowed. The oversize prefix is
// rejected as soon as it arrives: the connection stays open on the
// sending side, so the count cannot come from a truncated body.
func TestDecodeErrorCounted(t *testing.T) {
	addrs := freeAddrs(t, 1)
	var mu sync.Mutex
	tr := New(0, addrs, &mu, nopHandler)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	send := func(b []byte) net.Conn {
		conn, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	send([]byte("this is not a frame stream")).Close()
	waitFor(t, 5*time.Second, "decode error", func() bool { return tr.Stats().DecodeErrors == 1 })

	conn := send(binary.AppendUvarint(nil, maxFrame+1))
	defer conn.Close()
	waitFor(t, 5*time.Second, "oversize frame rejected", func() bool { return tr.Stats().DecodeErrors == 2 })
	if got := tr.Stats().Delivered; got != 0 {
		t.Fatalf("delivered %d messages from bad streams", got)
	}
}

// TestWordsParityWithSimulator drives one identical message trace
// through the TCP transport's metrics recorder and through the
// simulated network's, and requires the words accounting to agree
// exactly: same send count, same total words, same per-kind counts.
// This is the cross-check that makes wall-clock words tables directly
// comparable to simulated ones.
func TestWordsParityWithSimulator(t *testing.T) {
	cfg := types.NewConfig(1, 50*time.Millisecond)
	type op struct {
		from types.NodeID
		to   types.NodeID // -1 = broadcast
		m    msg.Message
	}
	qc := &msg.QC{V: 3}
	trace := []op{
		{0, -1, &msg.ViewMsg{V: 1}},
		{1, 0, &msg.Vote{V: 1}},
		{2, 0, &msg.Vote{V: 1}},
		{0, -1, qc},
		{0, -1, &msg.Proposal{V: 2, Justify: qc, Block: []byte("x")}}, // 5 words
		{1, -1, &msg.Proposal{V: 2}},                                  // 2 words
		{3, -1, &msg.Wish{V: 2}},
		{2, 2, &msg.Timeout{V: 2}}, // self-send: not a transmission
		{3, -1, &msg.Request{ID: 9, Payload: []byte("SET k v")}},
		{0, -1, &msg.VC{V: 1}},
		{1, -1, &msg.EC{}},
		{2, -1, &msg.TC{}},
		{3, 1, &msg.EpochViewMsg{}},
	}

	// TCP side: one transport + collector per node. OnSend fires at
	// enqueue time, so the trace needs no live sockets.
	addrs := freeAddrs(t, cfg.N)
	cols := make([]*metrics.Collector, cfg.N)
	trs := make([]*Transport, cfg.N)
	mus := make([]sync.Mutex, cfg.N)
	for i := 0; i < cfg.N; i++ {
		cols[i] = metrics.NewCollector(nil)
		trs[i] = New(types.NodeID(i), addrs, &mus[i], nopHandler,
			WithObserver(cols[i], func() types.Time { return 0 }))
		defer trs[i].Close()
	}
	for _, o := range trace {
		if o.to < 0 {
			trs[o.from].Broadcast(o.m)
		} else {
			trs[o.from].Send(o.to, o.m)
		}
	}

	// Simulator side: the same trace on the simulated network.
	sched := sim.New(1)
	simNet := network.NewNet(sched, cfg, 0, nil)
	simCol := metrics.NewCollector(nil)
	simNet.Observe(simCol)
	eps := make([]network.Endpoint, cfg.N)
	for i := 0; i < cfg.N; i++ {
		eps[i] = simNet.Attach(types.NodeID(i), nopHandler)
	}
	for _, o := range trace {
		if o.to < 0 {
			eps[o.from].Broadcast(o.m)
		} else {
			eps[o.from].Send(o.to, o.m)
		}
	}

	var tcpWords, tcpSends int64
	for _, c := range cols {
		tcpWords += c.WordsTotal()
		tcpSends += c.HonestSends()
	}
	if tcpSends == 0 {
		t.Fatal("trace produced no transmissions")
	}
	if tcpWords != simCol.WordsTotal() || tcpSends != simCol.HonestSends() {
		t.Fatalf("TCP recorder (%d sends, %d words) != simulator model (%d sends, %d words)",
			tcpSends, tcpWords, simCol.HonestSends(), simCol.WordsTotal())
	}
	kinds := []msg.Kind{
		msg.KindView, msg.KindVC, msg.KindEpochView, msg.KindEC, msg.KindTC,
		msg.KindProposal, msg.KindVote, msg.KindQC, msg.KindWish,
		msg.KindTimeout, msg.KindRequest,
	}
	for _, k := range kinds {
		var tcp int64
		for _, c := range cols {
			tcp += c.KindCount(k)
		}
		if sim := simCol.KindCount(k); tcp != sim {
			t.Errorf("kind %v: TCP counted %d, simulator %d", k, tcp, sim)
		}
	}
}
