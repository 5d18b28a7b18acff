package nettcp

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/types"
)

// condPair boots two started transports A→B with a conditioner on A and
// a recorder on B. now() is wall time since boot.
func condPair(t *testing.T, mkCond func(now func() types.Time) *Conditioner) (a, b *Transport, rec *recorder, now func() types.Time) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	start := time.Now()
	now = func() types.Time { return types.Time(time.Since(start)) }
	var muA, muB sync.Mutex
	a = New(0, addrs, &muA, nopHandler, WithConditioner(mkCond(now)))
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	rec = &recorder{}
	b = New(1, addrs, &muB, rec)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return a, b, rec, now
}

var zeroLink = network.DelayLink{P: network.Fixed{D: 0}}

// TestChaosSocketClamp checks the §2 clamp at the socket layer: with
// 100% loss and no omission budget, a message sent before GST is not
// dropped but released at the bound max(GST, t)+Δ — so it arrives after
// GST, never silently disappears.
func TestChaosSocketClamp(t *testing.T) {
	const gst = 600 * time.Millisecond
	const delta = 100 * time.Millisecond
	a, _, rec, now := condPair(t, func(now func() types.Time) *Conditioner {
		return NewConditioner(adversary.Lossy{Base: zeroLink, P: 1}, gst, delta,
			network.OmissionBudget{}, now, 1)
	})
	a.Send(1, &msg.ViewMsg{V: 7})
	time.Sleep(gst / 2)
	if rec.count() != 0 {
		t.Fatal("lossy pre-GST message delivered before the clamp bound")
	}
	waitFor(t, 10*time.Second, "clamped release", func() bool { return rec.count() == 1 })
	if got := now(); got < types.Time(gst) {
		t.Fatalf("delivered at %v, before GST %v", got, gst)
	}
	ps := a.Stats().Peers[1]
	if ps.Delayed != 1 || ps.CondDrops != 0 {
		t.Fatalf("delayed=%d condDrops=%d, want 1/0", ps.Delayed, ps.CondDrops)
	}
}

// TestChaosSocketOmissionBudget checks that post-GST drops are granted
// as true omissions only up to the budget; the rest degrade to clamped
// releases and still arrive.
func TestChaosSocketOmissionBudget(t *testing.T) {
	const delta = 50 * time.Millisecond
	var cond *Conditioner
	a, _, rec, _ := condPair(t, func(now func() types.Time) *Conditioner {
		cond = NewConditioner(adversary.Lossy{Base: zeroLink, P: 1}, 0, delta,
			network.OmissionBudget{MaxMessages: 2, MaxSenders: 1}, now, 1)
		return cond
	})
	const sends = 5
	for i := 0; i < sends; i++ {
		a.Send(1, &msg.Wish{V: types.View(i)})
	}
	if got := cond.Omitted(); got != 2 {
		t.Fatalf("Omitted = %d, want 2", got)
	}
	waitFor(t, 10*time.Second, "unfunded drops to arrive", func() bool {
		return rec.count() == sends-2
	})
	ps := a.Stats().Peers[1]
	if ps.CondDrops != 2 || ps.Delayed != sends-2 {
		t.Fatalf("condDrops=%d delayed=%d, want 2/%d", ps.CondDrops, ps.Delayed, sends-2)
	}
}

// TestChaosSocketChurn checks the crash-recovery down state: while down
// the node neither sends nor receives; after recovery traffic flows.
func TestChaosSocketChurn(t *testing.T) {
	var cond *Conditioner
	a, b, recB, _ := condPair(t, func(now func() types.Time) *Conditioner {
		cond = NewConditioner(nil, 0, 50*time.Millisecond, network.OmissionBudget{}, now, 1)
		return cond
	})
	// Up: a round trip works.
	a.Send(1, &msg.ViewMsg{V: 1})
	waitFor(t, 10*time.Second, "delivery while up", func() bool { return recB.count() == 1 })

	cond.SetDown(true)
	a.Send(1, &msg.ViewMsg{V: 2}) // outbound while down: dropped
	b.Send(0, &msg.ViewMsg{V: 3}) // inbound while down: discarded
	time.Sleep(200 * time.Millisecond)
	if recB.count() != 1 {
		t.Fatal("outbound message leaked while down")
	}
	if got := a.Stats().Peers[1].CondDrops; got != 1 {
		t.Fatalf("condDrops = %d, want 1", got)
	}
	if got := a.Stats().Delivered; got != 0 {
		t.Fatalf("node delivered %d inbound messages while down", got)
	}

	cond.SetDown(false)
	a.Send(1, &msg.ViewMsg{V: 4})
	waitFor(t, 10*time.Second, "delivery after recovery", func() bool { return recB.count() == 2 })
}

// TestChaosSocketDuplication checks duplication at the socket layer:
// the receiver sees the extra copy and the sender counts it.
func TestChaosSocketDuplication(t *testing.T) {
	a, _, rec, _ := condPair(t, func(now func() types.Time) *Conditioner {
		return NewConditioner(adversary.Duplicating{Base: zeroLink, P: 1}, 0,
			50*time.Millisecond, network.OmissionBudget{}, now, 1)
	})
	a.Send(1, &msg.QC{V: 5})
	waitFor(t, 10*time.Second, "both copies", func() bool { return rec.count() == 2 })
	if got := a.Stats().Peers[1].Duplicates; got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
}

// TestChaosSocketStraggler checks the slow-replica model at the socket
// layer: a per-recipient processing delay shifts the release past the
// delay even on an otherwise unconditioned link, mirroring the
// simulator's post-clamp straggler semantics.
func TestChaosSocketStraggler(t *testing.T) {
	const proc = 400 * time.Millisecond
	a, _, rec, now := condPair(t, func(now func() types.Time) *Conditioner {
		cond := NewConditioner(nil, 0, 50*time.Millisecond, network.OmissionBudget{}, now, 1)
		cond.SetProcDelays([]time.Duration{0, proc})
		return cond
	})
	a.Send(1, &msg.ViewMsg{V: 1})
	time.Sleep(proc / 2)
	if rec.count() != 0 {
		t.Fatal("straggler message delivered before its processing delay")
	}
	waitFor(t, 10*time.Second, "straggler release", func() bool { return rec.count() == 1 })
	if got := now(); got < types.Time(proc) {
		t.Fatalf("delivered at %v, before the %v processing delay", got, proc)
	}
	if got := a.Stats().Peers[1].Delayed; got != 1 {
		t.Fatalf("delayed = %d, want 1", got)
	}
}

// TestChaosSocketTopology checks that a regional topology compiled with
// Topology.Policy conditions real socket traffic: the inter-region
// latency class holds up delivery between regions.
func TestChaosSocketTopology(t *testing.T) {
	const inter = 400 * time.Millisecond
	topo := &network.Topology{Regions: []int{1, 1}, Intra: time.Millisecond, Inter: inter}
	if err := topo.Validate(2, time.Second); err != nil {
		t.Fatal(err)
	}
	a, _, rec, now := condPair(t, func(now func() types.Time) *Conditioner {
		return NewConditioner(topo.Policy(), 0, time.Second, network.OmissionBudget{}, now, 1)
	})
	a.Send(1, &msg.ViewMsg{V: 1})
	time.Sleep(inter / 2)
	if rec.count() != 0 {
		t.Fatal("inter-region message arrived before its latency class")
	}
	waitFor(t, 10*time.Second, "inter-region delivery", func() bool { return rec.count() == 1 })
	if got := now(); got < types.Time(inter) {
		t.Fatalf("delivered at %v, before the %v inter-region class", got, inter)
	}
}

// TestChaosSocketPartition checks the partition primitive severs the
// cut links at the socket layer until heal and restores them after.
func TestChaosSocketPartition(t *testing.T) {
	const heal = 500 * time.Millisecond
	const delta = 50 * time.Millisecond
	a, _, rec, now := condPair(t, func(now func() types.Time) *Conditioner {
		link := adversary.NewPartition(zeroLink, 2, types.Time(heal),
			[]types.NodeID{0}, []types.NodeID{1})
		// GST at heal: the partition window is the asynchronous period.
		return NewConditioner(link, heal, delta, network.OmissionBudget{}, now, 1)
	})
	a.Send(1, &msg.ViewMsg{V: 1})
	time.Sleep(heal / 2)
	if rec.count() != 0 {
		t.Fatal("message crossed the partition before heal")
	}
	waitFor(t, 10*time.Second, "post-heal delivery", func() bool { return rec.count() == 1 })
	if got := now(); got < types.Time(heal) {
		t.Fatalf("delivered at %v, before heal %v", got, heal)
	}
}

// stillClock is a conditioner clock that moves only when the test moves
// it, so release times are exactly the verdict delays.
type stillClock struct{ ns atomic.Int64 }

func (c *stillClock) now() types.Time         { return types.Time(c.ns.Load()) }
func (c *stillClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestConditionerReleaseOrder checks the delay line's order: with
// jittered delays, held messages reach the peer queue in release-time
// order, and messages with equal release times keep their send order.
// The transport is not started, so nothing drains the queue.
func TestConditionerReleaseOrder(t *testing.T) {
	delays := []time.Duration{30, 10, 20, 10, 30, 20, 10, 40}
	jitter := network.LinkFunc(func(_, _ types.NodeID, m msg.Message, _ types.Time, _ *rand.Rand) network.Verdict {
		return network.Verdict{Delay: delays[m.View()] * time.Millisecond}
	})
	var clk stillClock
	c := NewConditioner(jitter, 0, time.Second, network.OmissionBudget{}, clk.now, 1)
	var mu sync.Mutex
	tr := New(0, freeAddrs(t, 2), &mu, nopHandler, WithConditioner(c))
	defer tr.Close()
	for v := range delays {
		tr.Send(1, &msg.ViewMsg{V: types.View(v)})
	}
	p := tr.peers[1]
	// The line's timer fires at the first delay and finds nothing due
	// until the clock moves.
	time.Sleep(50 * time.Millisecond)
	if len(p.queue) != 0 {
		t.Fatal("released before the clock reached a release time")
	}
	clk.advance(time.Second)
	waitFor(t, 5*time.Second, "releases", func() bool { return len(p.queue) == len(delays) })

	want := make([]types.View, len(delays))
	for i := range want {
		want[i] = types.View(i)
	}
	slices.SortStableFunc(want, func(a, b types.View) int { return cmp.Compare(delays[a], delays[b]) })
	for i, v := range want {
		if got := (<-p.queue).View(); got != v {
			t.Fatalf("release %d is view %d, want %d (order %v)", i, got, v, want)
		}
	}
	if got := p.delayed.Load(); got != int64(len(delays)) {
		t.Fatalf("delayed = %d, want %d", got, len(delays))
	}
}

// TestCloseCancelsPendingReleases checks that Close cancels the delay
// line: a message held for a second is never enqueued or delivered after
// Close returns, and Close does not wait out the delay.
func TestCloseCancelsPendingReleases(t *testing.T) {
	const hold = time.Second
	a, _, rec, _ := condPair(t, func(now func() types.Time) *Conditioner {
		return NewConditioner(network.DelayLink{P: network.Fixed{D: hold}}, 0, 2*hold,
			network.OmissionBudget{}, now, 1)
	})
	a.Send(1, &msg.ViewMsg{V: 1})
	start := time.Now()
	a.Close()
	if d := time.Since(start); d > hold/2 {
		t.Fatalf("Close took %v: it waited for the held message", d)
	}
	time.Sleep(time.Until(start.Add(hold + hold/4)))
	if rec.count() != 0 {
		t.Fatal("a held message was delivered after Close")
	}
	ps := a.Stats().Peers[1]
	if ps.Delayed != 1 || ps.Enqueued != 0 {
		t.Fatalf("delayed=%d enqueued=%d, want 1/0", ps.Delayed, ps.Enqueued)
	}
}
