package network

import (
	"math/rand"
	"testing"
	"time"

	"lumiere/internal/allocgate"
	"lumiere/internal/msg"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

func testCfg() types.Config { return types.NewConfig(1, 100*time.Millisecond) }

type recorder struct {
	got []struct {
		from types.NodeID
		at   types.Time
	}
	sched *sim.Scheduler
}

func (r *recorder) Deliver(from types.NodeID, _ msg.Message) {
	r.got = append(r.got, struct {
		from types.NodeID
		at   types.Time
	}{from, r.sched.Now()})
}

func TestFixedDelayDelivery(t *testing.T) {
	s := sim.New(1)
	n := NewNet(s, testCfg(), 0, Fixed{D: 10 * time.Millisecond})
	r := &recorder{sched: s}
	n.Attach(1, r)
	ep := n.Attach(0, &recorder{sched: s})
	ep.Send(1, &msg.ViewMsg{V: 3})
	s.RunFor(time.Second)
	if len(r.got) != 1 {
		t.Fatalf("deliveries = %d", len(r.got))
	}
	if r.got[0].at != types.Time(10*time.Millisecond) || r.got[0].from != 0 {
		t.Fatalf("got %+v", r.got[0])
	}
}

func TestPartialSynchronyClamp(t *testing.T) {
	s := sim.New(1)
	gst := types.Time(0).Add(500 * time.Millisecond)
	n := NewNet(s, testCfg(), gst, Adversarial{})
	r := &recorder{sched: s}
	n.Attach(1, r)
	ep := n.Attach(0, &recorder{sched: s})
	// Sent before GST: must arrive by GST+Δ.
	ep.Send(1, &msg.ViewMsg{V: 1})
	s.RunUntil(gst.Add(50 * time.Millisecond))
	// Sent after GST: must arrive by send+Δ.
	ep.Send(1, &msg.ViewMsg{V: 2})
	s.RunFor(10 * time.Second)
	if len(r.got) != 2 {
		t.Fatalf("deliveries = %d", len(r.got))
	}
	if want := gst.Add(100 * time.Millisecond); r.got[0].at != want {
		t.Fatalf("pre-GST delivery at %v, want %v", r.got[0].at, want)
	}
	if want := gst.Add(150 * time.Millisecond); r.got[1].at != want {
		t.Fatalf("post-GST delivery at %v, want %v", r.got[1].at, want)
	}
}

func TestBroadcastIncludesSelfImmediately(t *testing.T) {
	s := sim.New(1)
	n := NewNet(s, testCfg(), 0, Fixed{D: 10 * time.Millisecond})
	recs := make([]*recorder, 4)
	var ep Endpoint
	for i := range recs {
		recs[i] = &recorder{sched: s}
		e := n.Attach(types.NodeID(i), recs[i])
		if i == 0 {
			ep = e
		}
	}
	ep.Broadcast(&msg.ViewMsg{V: 1})
	s.RunUntil(0)
	if len(recs[0].got) != 1 || recs[0].got[0].at != 0 {
		t.Fatalf("self-delivery not immediate: %+v", recs[0].got)
	}
	s.RunFor(time.Second)
	for i, r := range recs {
		if len(r.got) != 1 {
			t.Fatalf("node %d got %d", i, len(r.got))
		}
	}
}

func TestObserverCountsAndHonesty(t *testing.T) {
	s := sim.New(1)
	n := NewNet(s, testCfg(), 0, Fixed{D: time.Millisecond})
	var sends, byzSends int
	n.Observe(observerFuncs{
		onSend: func(honest bool) {
			if honest {
				sends++
			} else {
				byzSends++
			}
		},
	})
	eps := make([]Endpoint, 4)
	for i := range eps {
		eps[i] = n.Attach(types.NodeID(i), &recorder{sched: s})
	}
	n.SetByzantine(3)
	eps[0].Broadcast(&msg.ViewMsg{V: 1}) // 3 network sends (self excluded)
	eps[3].Broadcast(&msg.ViewMsg{V: 1}) // 3 byzantine sends
	s.RunFor(time.Second)
	if sends != 3 || byzSends != 3 {
		t.Fatalf("sends=%d byz=%d", sends, byzSends)
	}
}

type observerFuncs struct {
	onSend func(honest bool)
}

func (o observerFuncs) OnSend(_, _ types.NodeID, _ msg.Message, _ types.Time, honest bool) {
	if o.onSend != nil {
		o.onSend(honest)
	}
}
func (o observerFuncs) OnDeliver(_, _ types.NodeID, _ msg.Message, _ types.Time) {}

func TestKill(t *testing.T) {
	s := sim.New(1)
	n := NewNet(s, testCfg(), 0, Fixed{D: time.Millisecond})
	r1 := &recorder{sched: s}
	ep0 := n.Attach(0, &recorder{sched: s})
	n.Attach(1, r1)
	ep1 := n.Attach(1, r1) // reattach returns fresh endpoint, same handler
	ep0.Send(1, &msg.ViewMsg{V: 1})
	s.RunFor(10 * time.Millisecond)
	n.Kill(0)
	ep0.Send(1, &msg.ViewMsg{V: 2}) // dropped: sender killed
	s.RunFor(10 * time.Millisecond)
	n.Kill(1)
	ep1.Send(1, &msg.ViewMsg{V: 3}) // dropped: receiver killed
	s.RunFor(10 * time.Millisecond)
	if len(r1.got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(r1.got))
	}
}

func TestStopDropsTraffic(t *testing.T) {
	s := sim.New(1)
	n := NewNet(s, testCfg(), 0, Fixed{D: time.Millisecond})
	r := &recorder{sched: s}
	ep := n.Attach(0, &recorder{sched: s})
	n.Attach(1, r)
	n.Stop()
	ep.Send(1, &msg.ViewMsg{V: 1})
	s.RunFor(time.Second)
	if len(r.got) != 0 {
		t.Fatal("stopped net delivered")
	}
}

type nopHandler struct{}

func (nopHandler) Deliver(types.NodeID, msg.Message) {}

// TestBroadcastAllocs pins the zero-allocation send hot path across the
// scheduler and network layers: a warm n=31 broadcast plus the delivery
// of all its messages must average well under one allocation (the
// pre-arena implementation spent 3 allocations per point-to-point send).
// The drop and duplicate link-policy paths are gated alongside the
// delay-only baseline: chaos conditions ride the same hot path.
func TestBroadcastAllocs(t *testing.T) {
	// Half the messages are dropped pre-GST (delivery at the bound),
	// the other half delivered normally.
	dropHalf := LinkFunc(func(_, to types.NodeID, _ msg.Message, _ types.Time, _ *rand.Rand) Verdict {
		return Verdict{Delay: time.Millisecond, Drop: to%2 == 0}
	})
	// Every message is duplicated with a jittered second copy.
	dupAll := LinkFunc(func(_, _ types.NodeID, _ msg.Message, _ types.Time, rng *rand.Rand) Verdict {
		d := time.Millisecond
		return Verdict{Delay: d, Dup: true, DupDelay: d + time.Duration(rng.Int63n(int64(time.Millisecond)))}
	})
	run := func(t *testing.T, observe bool, link LinkPolicy) {
		cfg := types.NewConfig(10, 100*time.Millisecond) // n = 31
		s := sim.New(1)
		// GST at 1h keeps every drop in the pre-GST "loss" regime:
		// the clamp reschedules it rather than omitting it.
		n := NewNetLink(s, cfg, types.Time(0).Add(time.Hour), link)
		if observe {
			n.Observe(observerFuncs{})
		}
		var ep Endpoint
		for i := 0; i < cfg.N; i++ {
			e := n.Attach(types.NodeID(i), nopHandler{})
			if i == 0 {
				ep = e
			}
		}
		m := &msg.ViewMsg{V: 1}
		for i := 0; i < 50; i++ { // warm the event arena
			ep.Broadcast(m)
			s.RunFor(10 * time.Millisecond)
		}
		avg := allocgate.PerRun(t, 200, func() {
			ep.Broadcast(m)
			s.RunFor(10 * time.Millisecond)
		})
		perSend := avg / float64(cfg.N)
		t.Logf("allocs per broadcast = %.2f (%.4f per send)", avg, perSend)
		if perSend > 0.3 {
			t.Errorf("broadcast allocates %.4f per send, want <= 0.3 (>=10x below the pre-arena 3.0)", perSend)
		}
	}
	fixed := LinkPolicy(DelayLink{P: Fixed{D: time.Millisecond}})
	t.Run("no-observer", func(t *testing.T) { run(t, false, fixed) })
	t.Run("one-observer", func(t *testing.T) { run(t, true, fixed) })
	t.Run("dropping", func(t *testing.T) { run(t, true, dropHalf) })
	t.Run("duplicating", func(t *testing.T) { run(t, true, dupAll) })
}

// linkNet builds a 4-node net with recorders on every node, returning
// the endpoints and recorders.
func linkNet(s *sim.Scheduler, gst types.Time, link LinkPolicy) (*Net, []Endpoint, []*recorder) {
	n := NewNetLink(s, testCfg(), gst, link)
	eps := make([]Endpoint, 4)
	recs := make([]*recorder, 4)
	for i := range eps {
		recs[i] = &recorder{sched: s}
		eps[i] = n.Attach(types.NodeID(i), recs[i])
	}
	return n, eps, recs
}

// TestLinkClampEdgeCases pins the partial-synchrony clamp on the link
// layer, Δ = 100ms, GST = 500ms: delivery never lands outside
// [t, max(GST, t)+Δ], drops degrade to deliveries at the bound, and
// adversarially-delayed duplicates collapse onto the same timestamp.
func TestLinkClampEdgeCases(t *testing.T) {
	gst := types.Time(0).Add(500 * time.Millisecond)
	delta := 100 * time.Millisecond
	eps := time.Nanosecond
	adversarialDrop := Verdict{Drop: true}
	collapseDup := Verdict{Delay: 1 << 62, Dup: true, DupDelay: 1 << 62}
	cases := []struct {
		name    string
		sendAt  types.Time
		verdict Verdict
		wantAt  []types.Time // delivery times in order
	}{
		{
			// max(GST, t) = t exactly at the boundary: bound is GST+Δ.
			name:    "adversarial delay sent exactly at GST",
			sendAt:  gst,
			verdict: Verdict{Delay: 1 << 62},
			wantAt:  []types.Time{gst.Add(delta)},
		},
		{
			// The model-faithful "loss": a message dropped just before
			// GST must still be delivered at GST+Δ.
			name:    "drop at GST-ε delivered at GST+Δ",
			sendAt:  gst.Add(-eps),
			verdict: adversarialDrop,
			wantAt:  []types.Time{gst.Add(delta)},
		},
		{
			// A drop exactly at GST without a budget degrades to the
			// worst delay: delivery at t+Δ = GST+Δ.
			name:    "unfunded drop at GST",
			sendAt:  gst,
			verdict: adversarialDrop,
			wantAt:  []types.Time{gst.Add(delta)},
		},
		{
			name:    "zero verdict delivers immediately",
			sendAt:  gst.Add(time.Second),
			verdict: Verdict{},
			wantAt:  []types.Time{gst.Add(time.Second)},
		},
		{
			// Original and duplicate both request unbounded delay: the
			// clamp collapses them onto the bound — two deliveries at
			// the same timestamp.
			name:    "duplicate collapsing at same timestamp pre-GST",
			sendAt:  gst.Add(-100 * time.Millisecond),
			verdict: collapseDup,
			wantAt:  []types.Time{gst.Add(delta), gst.Add(delta)},
		},
		{
			name:    "duplicate collapsing at same timestamp post-GST",
			sendAt:  gst.Add(delta),
			verdict: collapseDup,
			wantAt:  []types.Time{gst.Add(2 * delta), gst.Add(2 * delta)},
		},
		{
			name:    "negative delay clamps to send time",
			sendAt:  gst.Add(time.Second),
			verdict: Verdict{Delay: -time.Second},
			wantAt:  []types.Time{gst.Add(time.Second)},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			v := tc.verdict
			_, eps, recs := linkNet(s, gst, LinkFunc(
				func(_, _ types.NodeID, _ msg.Message, _ types.Time, _ *rand.Rand) Verdict { return v }))
			s.RunUntil(tc.sendAt)
			eps[0].Send(1, &msg.ViewMsg{V: 1})
			s.RunFor(time.Hour)
			got := recs[1].got
			if len(got) != len(tc.wantAt) {
				t.Fatalf("deliveries = %d, want %d", len(got), len(tc.wantAt))
			}
			for i, want := range tc.wantAt {
				if got[i].at != want {
					t.Errorf("delivery %d at %v, want %v", i, got[i].at, want)
				}
			}
		})
	}
}

// TestOmissionBudget pins the post-GST omission accounting: drops are
// true omissions only within MaxMessages and MaxSenders, and everything
// beyond the budget degrades to a delivery at the bound.
func TestOmissionBudget(t *testing.T) {
	gst := types.Time(0).Add(500 * time.Millisecond)
	dropAll := LinkFunc(func(_, _ types.NodeID, _ msg.Message, _ types.Time, _ *rand.Rand) Verdict {
		return Verdict{Drop: true}
	})

	t.Run("max messages", func(t *testing.T) {
		s := sim.New(1)
		n, eps, recs := linkNet(s, gst, dropAll)
		n.SetOmissionBudget(OmissionBudget{MaxMessages: 2})
		s.RunUntil(gst)
		for i := 0; i < 4; i++ {
			eps[0].Send(1, &msg.ViewMsg{V: types.View(i)})
		}
		s.RunFor(time.Hour)
		if len(recs[1].got) != 2 {
			t.Fatalf("deliveries = %d, want 2 (2 of 4 omitted)", len(recs[1].got))
		}
		if n.Omitted() != 2 {
			t.Fatalf("Omitted() = %d, want 2", n.Omitted())
		}
	})

	t.Run("max senders", func(t *testing.T) {
		s := sim.New(1)
		n, eps, recs := linkNet(s, gst, dropAll)
		n.SetOmissionBudget(OmissionBudget{MaxMessages: 100, MaxSenders: 1})
		s.RunUntil(gst)
		eps[0].Send(2, &msg.ViewMsg{V: 1}) // claims the only sender slot
		eps[1].Send(2, &msg.ViewMsg{V: 2}) // different sender: degrades
		eps[0].Send(2, &msg.ViewMsg{V: 3}) // same sender: omitted
		s.RunFor(time.Hour)
		if len(recs[2].got) != 1 {
			t.Fatalf("deliveries = %d, want 1 (only p1's message degrades)", len(recs[2].got))
		}
		if recs[2].got[0].from != 1 {
			t.Fatalf("delivered from %v, want p1", recs[2].got[0].from)
		}
		if n.Omitted() != 2 {
			t.Fatalf("Omitted() = %d, want 2", n.Omitted())
		}
	})

	t.Run("pre-GST drops never charge the budget", func(t *testing.T) {
		s := sim.New(1)
		n, eps, recs := linkNet(s, gst, dropAll)
		n.SetOmissionBudget(OmissionBudget{MaxMessages: 100})
		eps[0].Send(1, &msg.ViewMsg{V: 1}) // at t=0, pre-GST
		s.RunFor(time.Hour)
		if len(recs[1].got) != 1 || recs[1].got[0].at != gst.Add(100*time.Millisecond) {
			t.Fatalf("pre-GST drop: %+v, want one delivery at GST+Δ", recs[1].got)
		}
		if n.Omitted() != 0 {
			t.Fatalf("Omitted() = %d, want 0", n.Omitted())
		}
	})
}

// TestReviveRestoresTraffic pins crash-recovery at the network level:
// a killed node neither sends nor receives, and both directions resume
// after Revive.
func TestReviveRestoresTraffic(t *testing.T) {
	s := sim.New(1)
	n, eps, recs := linkNet(s, 0, DelayLink{P: Fixed{D: time.Millisecond}})
	eps[0].Send(1, &msg.ViewMsg{V: 1})
	s.RunFor(10 * time.Millisecond)
	n.Kill(1)
	eps[0].Send(1, &msg.ViewMsg{V: 2}) // lost: receiver down
	eps[1].Send(0, &msg.ViewMsg{V: 3}) // lost: sender down
	s.RunFor(10 * time.Millisecond)
	n.Revive(1)
	eps[0].Send(1, &msg.ViewMsg{V: 4})
	eps[1].Send(0, &msg.ViewMsg{V: 5})
	s.RunFor(10 * time.Millisecond)
	if len(recs[1].got) != 2 {
		t.Fatalf("receiver deliveries = %d, want 2 (v1, v4)", len(recs[1].got))
	}
	if len(recs[0].got) != 1 {
		t.Fatalf("sender-side deliveries = %d, want 1 (v5)", len(recs[0].got))
	}
}

func TestUniformPolicyWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Uniform{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := p.Delay(0, 1, &msg.ViewMsg{}, 0, rng)
		if d < p.Min || d > p.Max {
			t.Fatalf("delay %v outside [%v,%v]", d, p.Min, p.Max)
		}
	}
	degenerate := Uniform{Min: 3 * time.Millisecond, Max: 3 * time.Millisecond}
	if d := degenerate.Delay(0, 1, &msg.ViewMsg{}, 0, rng); d != 3*time.Millisecond {
		t.Fatalf("degenerate uniform = %v", d)
	}
}

func TestTargetedPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Targeted{
		Base:    Fixed{D: time.Millisecond},
		Slow:    Fixed{D: time.Second},
		Targets: map[types.NodeID]bool{2: true},
	}
	if d := p.Delay(0, 1, &msg.ViewMsg{}, 0, rng); d != time.Millisecond {
		t.Fatalf("base = %v", d)
	}
	if d := p.Delay(0, 2, &msg.ViewMsg{}, 0, rng); d != time.Second {
		t.Fatalf("to target = %v", d)
	}
	if d := p.Delay(2, 0, &msg.ViewMsg{}, 0, rng); d != time.Second {
		t.Fatalf("from target = %v", d)
	}
}

func TestPhasedPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Phased{
		Switch: 100,
		Before: Fixed{D: time.Millisecond},
		After:  Fixed{D: time.Second},
	}
	if d := p.Delay(0, 1, &msg.ViewMsg{}, 99, rng); d != time.Millisecond {
		t.Fatalf("before = %v", d)
	}
	if d := p.Delay(0, 1, &msg.ViewMsg{}, 100, rng); d != time.Second {
		t.Fatalf("at switch = %v", d)
	}
}

// TestPreGSTChaos: over a uniform delay base, a pre-GST send rides the
// maximal delay (clamped to GST+Δ by the network) without drawing from
// the rng; at and after GST the base rules.
func TestPreGSTChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gst := types.Time(0).Add(time.Second)
	p := PreGSTChaosLink{GST: gst, Base: DelayLink{P: Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond}}}
	if d := p.Link(0, 1, &msg.ViewMsg{}, 0, rng).Delay; d < time.Hour {
		t.Fatalf("pre-GST delay too small: %v", d)
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(1)).Int63(); got != want {
		t.Fatal("a pre-GST verdict drew from the rng")
	}
	if d := p.Link(0, 1, &msg.ViewMsg{}, gst, rng).Delay; d < time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("post-GST = %v", d)
	}
}

// TestBroadcastMatchesSends is the per-recipient reference for the
// multicast broadcast: a Broadcast must be observationally identical to
// a Send to every node, the sender included, in ID order. Two nets on
// same-seed schedulers get the same setup — pre-GST loss, duplication
// and reorder jitter, post-GST drops against an omission budget,
// straggler delays, a killed node, a Byzantine node and an observer —
// and must agree on the delivery log, the OnSend sequence, Omitted()
// and the delivered count.
func TestBroadcastMatchesSends(t *testing.T) {
	cfg := types.NewConfig(2, 100*time.Millisecond) // n = 7
	gst := types.Time(0).Add(500 * time.Millisecond)
	chaos := LinkFunc(func(_, _ types.NodeID, _ msg.Message, at types.Time, rng *rand.Rand) Verdict {
		v := Verdict{Delay: time.Duration(rng.Int63n(int64(30 * time.Millisecond)))}
		if at < gst {
			v.Drop = rng.Float64() < 0.2
			v.Dup = rng.Float64() < 0.15
			v.DupDelay = time.Duration(rng.Int63n(int64(30 * time.Millisecond)))
		} else {
			v.Drop = rng.Float64() < 0.1
		}
		return v
	})
	run := func(broadcast bool) *netTrace {
		s := sim.New(9)
		n := NewNetLink(s, cfg, gst, chaos)
		n.SetOmissionBudget(OmissionBudget{MaxMessages: 6, MaxSenders: 1})
		procDelay := make([]time.Duration, cfg.N)
		procDelay[2], procDelay[6] = 7*time.Millisecond, 40*time.Millisecond
		n.SetProcDelays(procDelay)
		n.SetByzantine(3)
		tr := &netTrace{}
		n.Observe(tr)
		eps := make([]Endpoint, cfg.N)
		for i := range eps {
			to := types.NodeID(i)
			eps[i] = n.Attach(to, HandlerFunc(func(from types.NodeID, m msg.Message) {
				tr.deliveries = append(tr.deliveries, traceEvent{from: from, to: to, v: m.View(), at: s.Now()})
			}))
		}
		n.Kill(5)
		for round := 0; round < 10; round++ {
			s.RunUntil(types.Time(0).Add(time.Duration(round) * 90 * time.Millisecond))
			for _, from := range []types.NodeID{0, 3, 5, 1, 6} {
				m := &msg.ViewMsg{V: types.View(10*round) + types.View(from)}
				if broadcast {
					eps[from].Broadcast(m)
					continue
				}
				for to := range eps {
					eps[from].Send(types.NodeID(to), m)
				}
			}
		}
		s.RunFor(time.Hour)
		tr.omitted = n.Omitted()
		return tr
	}
	multi, sends := run(true), run(false)
	if multi.omitted == 0 || multi.delivered <= len(multi.sends)/2 {
		t.Fatalf("setup exercises too little: %d omitted, %d delivered of %d sends",
			multi.omitted, multi.delivered, len(multi.sends))
	}
	if multi.omitted != sends.omitted || multi.delivered != sends.delivered {
		t.Fatalf("broadcast omitted %d and delivered %d, sends omitted %d and delivered %d",
			multi.omitted, multi.delivered, sends.omitted, sends.delivered)
	}
	for name, pair := range map[string][2][]traceEvent{
		"OnSend":   {multi.sends, sends.sends},
		"delivery": {multi.deliveries, sends.deliveries},
	} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("%s log: broadcast has %d entries, sends %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s log entry %d: broadcast %+v, sends %+v", name, i, got[i], want[i])
			}
		}
	}
}

// traceEvent is one logged transmission or delivery.
type traceEvent struct {
	from, to types.NodeID
	v        types.View
	at       types.Time
	honest   bool
}

// netTrace observes a net: it logs every OnSend and counts OnDelivers;
// its user fills deliveries and omitted.
type netTrace struct {
	sends, deliveries []traceEvent
	delivered         int
	omitted           int64
}

func (r *netTrace) OnSend(from, to types.NodeID, m msg.Message, at types.Time, honest bool) {
	r.sends = append(r.sends, traceEvent{from, to, m.View(), at, honest})
}

func (r *netTrace) OnDeliver(_, _ types.NodeID, _ msg.Message, _ types.Time) { r.delivered++ }
