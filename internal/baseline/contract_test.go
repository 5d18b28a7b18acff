package baseline_test

import (
	"testing"

	"lumiere/internal/baseline"
	"lumiere/internal/baseline/baselinetest"
	"lumiere/internal/baseline/cogsworth"
	"lumiere/internal/baseline/fever"
	"lumiere/internal/baseline/lp22"
	"lumiere/internal/baseline/nk20"
	"lumiere/internal/baseline/raresync"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/pacemaker"
	"lumiere/internal/types"
)

// protocol describes one baseline to the contract test: how to build it
// and the synchronization message / certificate pair it assembles. In the
// fixture's n = 4, f = 1 system every baseline enters even views on that
// certificate (LP22/RareSync epochs are 2 views, Fever's initial views
// are the even ones, and the test feeds Cogsworth and NK20 a TC there),
// and odd views on a QC — or, RareSync, on the clock.
type protocol struct {
	name  string
	build func(u *baselinetest.Unit) (pacemaker.Pacemaker, *baseline.Certs)
	// threshold is the certificate size: 2f+1 for an EC, f+1 otherwise.
	threshold int
	// leaderOnly: only lead(v) collects view v's messages.
	leaderOnly bool
	stmt       func(v types.View) []byte
	sync       func(v types.View, sig crypto.Signature) msg.Message
	cert       func(v types.View, agg crypto.Aggregate) msg.Message
	// clockOdd: odd views are entered after Γ on the clock, not on a QC.
	clockOdd bool
}

func epochSync(name string, clockOdd bool,
	build func(u *baselinetest.Unit) *baseline.EpochSync) protocol {
	return protocol{
		name: name,
		build: func(u *baselinetest.Unit) (pacemaker.Pacemaker, *baseline.Certs) {
			p := build(u)
			return p, &p.Certs
		},
		threshold: 3,
		stmt:      msg.EpochViewStatement,
		sync: func(v types.View, sig crypto.Signature) msg.Message {
			return &msg.EpochViewMsg{V: v, Sig: sig}
		},
		cert:     func(v types.View, agg crypto.Aggregate) msg.Message { return &msg.EC{V: v, Agg: agg} },
		clockOdd: clockOdd,
	}
}

var protocols = []protocol{
	epochSync("lp22", false, func(u *baselinetest.Unit) *baseline.EpochSync {
		return lp22.New(u.Cfg, u.EP, u.Sched, u.Clk, u.Suite, u.Drv, nil, nil)
	}),
	epochSync("raresync", true, func(u *baselinetest.Unit) *baseline.EpochSync {
		return raresync.New(u.Cfg, u.EP, u.Sched, u.Clk, u.Suite, u.Drv, nil, nil)
	}),
	{
		name: "fever",
		build: func(u *baselinetest.Unit) (pacemaker.Pacemaker, *baseline.Certs) {
			p := fever.New(u.Cfg, u.EP, u.Sched, u.Clk, u.Suite, u.Drv, nil, nil)
			return p, &p.Certs
		},
		threshold: 2, leaderOnly: true,
		stmt: msg.ViewStatement,
		sync: func(v types.View, sig crypto.Signature) msg.Message { return &msg.ViewMsg{V: v, Sig: sig} },
		cert: func(v types.View, agg crypto.Aggregate) msg.Message { return &msg.VC{V: v, Agg: agg} },
	},
	{
		name: "cogsworth",
		build: func(u *baselinetest.Unit) (pacemaker.Pacemaker, *baseline.Certs) {
			p := cogsworth.New(u.Cfg, u.EP, u.Sched, u.Suite, u.Drv, nil, nil)
			return p, &p.Certs
		},
		threshold: 2,
		stmt:      msg.WishStatement,
		sync:      func(v types.View, sig crypto.Signature) msg.Message { return &msg.Wish{V: v, Sig: sig} },
		cert:      func(v types.View, agg crypto.Aggregate) msg.Message { return &msg.TC{V: v, Agg: agg} },
	},
	{
		name: "nk20",
		build: func(u *baselinetest.Unit) (pacemaker.Pacemaker, *baseline.Certs) {
			p := nk20.New(u.Cfg, u.EP, u.Sched, u.Suite, u.Drv, nil, nil)
			return p, &p.Certs
		},
		threshold: 2, leaderOnly: true,
		stmt: msg.TimeoutStatement,
		sync: func(v types.View, sig crypto.Signature) msg.Message { return &msg.Timeout{V: v, Sig: sig} },
		cert: func(v types.View, agg crypto.Aggregate) msg.Message { return &msg.TC{V: v, Agg: agg} },
	},
}

// run is one processor of one protocol under the contract test. Every
// message goes through handle, which checks that the view never
// decreases.
type run struct {
	t *testing.T
	protocol
	*baselinetest.Unit
	pm    pacemaker.Pacemaker
	certs *baseline.Certs
	high  types.View
}

func start(t *testing.T, p protocol, id types.NodeID) *run {
	r := &run{t: t, protocol: p, Unit: baselinetest.NewUnit(id, 0), high: types.NoView}
	r.pm, r.certs = p.build(r.Unit)
	r.pm.Start()
	r.Sched.RunUntil(0)
	r.checkView()
	return r
}

func (r *run) checkView() {
	r.t.Helper()
	if v := r.pm.CurrentView(); v < r.high {
		r.t.Fatalf("CurrentView went from %v back to %v", r.high, v)
	} else {
		r.high = v
	}
}

func (r *run) handle(from types.NodeID, m msg.Message) {
	r.t.Helper()
	r.pm.Handle(from, m)
	r.checkView()
}

// syncFrom is signer's synchronization message for view v.
func (r *run) syncFrom(signer types.NodeID, v types.View) msg.Message {
	return r.sync(v, r.Sign(signer, r.stmt(v)))
}

// certFor is view v's certificate with the given number of signers.
func (r *run) certFor(v types.View, signers int) msg.Message {
	return r.cert(v, r.Cert(r.stmt(v), signers))
}

// formed returns the certificates for view v the processor broadcast.
func (r *run) formed(v types.View) (out []msg.Message) {
	kind := r.cert(v, crypto.Aggregate{}).Kind()
	for _, m := range r.EP.Bcasts {
		if m.Kind() == kind && m.View() == v {
			out = append(out, m)
		}
	}
	return out
}

// collects reports whether the processor collects view v's messages.
func (r *run) collects(v types.View) bool {
	return !r.leaderOnly || r.pm.Leader(v) == r.EP.Node
}

// collectedView returns the first even view from 2 the processor
// collects synchronization messages for.
func (r *run) collectedView() types.View {
	for v := types.View(2); ; v += 2 {
		if r.collects(v) {
			return v
		}
	}
}

// enter moves the processor from view v-1 into view v.
func (r *run) enter(v types.View) {
	r.t.Helper()
	switch {
	case v%2 == 0 && r.collects(v):
		// The processor assembles the certificate itself; the
		// endpoint does not loop broadcasts back, so the test does.
		for i := 1; i <= r.threshold; i++ {
			r.handle(types.NodeID(i), r.syncFrom(types.NodeID(i), v))
		}
		certs := r.formed(v)
		if len(certs) != 1 {
			r.t.Fatalf("view %v: %d certificates broadcast at threshold, want 1", v, len(certs))
		}
		r.handle(r.EP.Node, certs[0])
	case v%2 == 0:
		r.handle(1, r.certFor(v, r.threshold))
	case r.clockOdd:
		r.Sched.RunFor(raresync.Gamma(r.Cfg))
		r.checkView()
	default:
		r.handle(1, r.QC(v-1))
	}
	if got := r.pm.CurrentView(); got != v {
		r.t.Fatalf("entering view %v left the processor in %v", v, got)
	}
}

// TestBaselineContract checks what every baseline owes the harness,
// whatever its synchronization mechanism.
func TestBaselineContract(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name+"/forged signer ignored", func(t *testing.T) {
			r := start(t, p, 0)
			v := r.collectedView()
			// Valid signatures, each delivered as if from another
			// processor.
			for i := 1; i <= r.threshold; i++ {
				r.handle(types.NodeID((i+1)%r.Cfg.N), r.syncFrom(types.NodeID(i), v))
			}
			if n := len(r.formed(v)); n != 0 || r.certs.Live() != 0 {
				t.Fatalf("forged senders produced %d certificates, %d live vote sets", n, r.certs.Live())
			}
			// The same signatures from their signers form the
			// certificate, once: a further vote adds nothing.
			for i := 0; i <= r.threshold; i++ {
				id := types.NodeID((i + 1) % r.Cfg.N)
				r.handle(id, r.syncFrom(id, v))
			}
			if n := len(r.formed(v)); n != 1 {
				t.Fatalf("%d certificates broadcast for %d votes at threshold %d, want 1", n, r.threshold+1, r.threshold)
			}
		})
		t.Run(p.name+"/certificate checked and acted on once", func(t *testing.T) {
			r := start(t, p, 3)
			before := r.pm.CurrentView()
			r.handle(1, r.certFor(2, r.threshold-1))
			r.handle(1, r.cert(2, r.Cert(r.stmt(4), r.threshold)))
			if got := r.pm.CurrentView(); got != before {
				t.Fatalf("undersized or wrong-statement certificate moved the view %v -> %v", before, got)
			}
			valid := r.certFor(2, r.threshold)
			r.handle(1, valid)
			if got := r.pm.CurrentView(); got != 2 {
				t.Fatalf("valid certificate for view 2 left the processor in %v", got)
			}
			entered, bcasts := len(r.Drv.Entered), len(r.EP.Bcasts)
			r.handle(2, valid)
			if len(r.Drv.Entered) != entered || len(r.EP.Bcasts) != bcasts {
				t.Fatal("replayed certificate was acted on again")
			}
		})
		t.Run(p.name+"/leader starts once per led view", func(t *testing.T) {
			r := start(t, p, 0)
			const views = 200
			for v := r.pm.CurrentView() + 1; v <= views; v++ {
				r.enter(v)
				// Stale traffic changes nothing.
				r.handle(1, r.QC(v-2))
				r.handle(1, r.certFor(v-v%2, r.threshold))
			}
			starts := map[types.View]int{}
			for _, v := range r.Drv.Started {
				starts[v]++
			}
			// View 0 is entered at boot, before the test feeds
			// Fever's leader the view messages it waits for.
			for v := types.View(1); v <= views; v++ {
				want := 0
				if r.pm.Leader(v) == r.EP.Node {
					want = 1
				}
				if starts[v] != want {
					t.Fatalf("view %v (leader %v): LeaderStart fired %d times, want %d; starts = %v",
						v, r.pm.Leader(v), starts[v], want, r.Drv.Started)
				}
			}
		})
		t.Run(p.name+"/per-view state is pruned", func(t *testing.T) {
			r := start(t, p, 0)
			next := r.pm.CurrentView() + 1
			// window enters 16 views — a whole number of every
			// protocol's leader and epoch periods, so any two
			// windows do the same work — and returns the mean
			// allocations per view. The recorders are emptied
			// first, so their growth is not measured.
			window := func() float64 {
				r.EP.Bcasts, r.EP.Sends = r.EP.Bcasts[:0], r.EP.Sends[:0]
				r.Drv.Entered, r.Drv.Started = r.Drv.Entered[:0], r.Drv.Started[:0]
				return testing.AllocsPerRun(16, func() {
					r.enter(next)
					next++
				})
			}
			for next < 64 {
				window()
			}
			early := window()
			for next < 200 {
				window()
			}
			if live := r.certs.Live(); live > 2 {
				t.Fatalf("%d live vote sets after %d views, want a constant ≤ 2", live, next-1)
			}
			if late := window(); late > early {
				t.Fatalf("a view costs %.0f allocations after %d views, %.0f after 64: per-view state grows", late, next-1, early)
			}
		})
	}
}
