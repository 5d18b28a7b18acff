package baseline_test

import (
	"slices"
	"testing"

	"lumiere/internal/allocgate"
	"lumiere/internal/baseline"
	"lumiere/internal/baseline/baselinetest"
	"lumiere/internal/baseline/cogsworth"
	"lumiere/internal/baseline/fever"
	"lumiere/internal/baseline/lp22"
	"lumiere/internal/baseline/nk20"
	"lumiere/internal/baseline/raresync"
	"lumiere/internal/core"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/pacemaker"
	"lumiere/internal/types"
)

// kind is one synchronization message / certificate pair.
type kind struct {
	// threshold is the certificate size: 2f+1 for an EC, f+1 otherwise.
	threshold int
	// leaderOnly: only lead(v) collects view v's messages.
	leaderOnly bool
	// silent: a processor that assembles the certificate acts on it
	// without broadcasting it.
	silent bool
	stmt   func(v types.View) []byte
	sync   func(v types.View, sig crypto.Signature) msg.Message
	cert   func(v types.View, agg crypto.Aggregate) msg.Message
}

var (
	ecKind = kind{
		threshold: 3,
		stmt:      msg.EpochViewStatement,
		sync:      func(v types.View, sig crypto.Signature) msg.Message { return &msg.EpochViewMsg{V: v, Sig: sig} },
		cert:      func(v types.View, agg crypto.Aggregate) msg.Message { return &msg.EC{V: v, Agg: agg} },
	}
	vcKind = kind{
		threshold: 2, leaderOnly: true,
		stmt: msg.ViewStatement,
		sync: func(v types.View, sig crypto.Signature) msg.Message { return &msg.ViewMsg{V: v, Sig: sig} },
		cert: func(v types.View, agg crypto.Aggregate) msg.Message { return &msg.VC{V: v, Agg: agg} },
	}
	wishKind = kind{
		threshold: 2,
		stmt:      msg.WishStatement,
		sync:      func(v types.View, sig crypto.Signature) msg.Message { return &msg.Wish{V: v, Sig: sig} },
		cert:      func(v types.View, agg crypto.Aggregate) msg.Message { return &msg.TC{V: v, Agg: agg} },
	}
	timeoutKind = kind{
		threshold: 2, leaderOnly: true,
		stmt: msg.TimeoutStatement,
		sync: func(v types.View, sig crypto.Signature) msg.Message { return &msg.Timeout{V: v, Sig: sig} },
		cert: func(v types.View, agg crypto.Aggregate) msg.Message { return &msg.TC{V: v, Agg: agg} },
	}
)

// protocol describes one pacemaker to the contract test: how to build it
// and the certificates that take it into even views. In the fixture's
// n = 4, f = 1 system every protocol enters even views on a certificate
// (LP22/RareSync epochs are 2 views, Fever's and Lumiere's initial views
// are the even ones, and the test feeds Cogsworth and NK20 a TC there),
// and odd views on a QC — or, RareSync, on the clock.
type protocol struct {
	name  string
	build func(u *baselinetest.Unit) (pacemaker.Pacemaker, []*baseline.Certs)
	// kinds lists what even view v takes, in order: the certificate that
	// enters it, then any its leader waits for before starting.
	kinds func(v types.View) []kind
	// clockOdd: odd views are entered after Γ on the clock, not on a QC.
	clockOdd bool
	// repeatsStart: LeaderStart fires twice, back to back, for an initial
	// view entered on a VC (ROADMAP item 2e: the fix moves
	// benchmark/golden.json, so it rides the [benchmark] re-baseline and
	// this field goes with it). Back-to-back repeats are collapsed
	// before counting.
	repeatsStart bool
}

func always(k kind) func(types.View) []kind {
	return func(types.View) []kind { return []kind{k} }
}

func epochSync(name string, clockOdd bool,
	build func(u *baselinetest.Unit) *baseline.EpochSync) protocol {
	return protocol{
		name: name,
		build: func(u *baselinetest.Unit) (pacemaker.Pacemaker, []*baseline.Certs) {
			p := build(u)
			return p, []*baseline.Certs{&p.Certs}
		},
		kinds:    always(ecKind),
		clockOdd: clockOdd,
	}
}

// lumiere: epoch views are entered on an EC every processor collects —
// Basic relays the one it assembles, the full variant does not — and
// their leader then waits for a VC like any initial view's; the other
// initial views are entered on the VC.
func lumiere(variant core.Variant) protocol {
	// Every unit of the fixture has the same execution-model configuration.
	base := baselinetest.NewUnit(0, 0).Cfg
	cfg := core.Config{Base: base, Variant: variant, Schedule: core.RoundRobin{N: base.N}, CheckInvariants: true}
	ec := ecKind
	ec.silent = variant == core.VariantFull
	return protocol{
		name: variant.String(),
		build: func(u *baselinetest.Unit) (pacemaker.Pacemaker, []*baseline.Certs) {
			p := core.New(cfg, u.EP, u.Sched, u.Clk, u.Suite, u.Drv, nil, nil)
			return p, []*baseline.Certs{&p.Certs, &p.EpochCerts}
		},
		kinds: func(v types.View) []kind {
			if cfg.IsEpochView(v) {
				return []kind{ec, vcKind}
			}
			return []kind{vcKind}
		},
		repeatsStart: true,
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
		build: func(u *baselinetest.Unit) (pacemaker.Pacemaker, []*baseline.Certs) {
			p := fever.New(u.Cfg, u.EP, u.Sched, u.Clk, u.Suite, u.Drv, nil, nil)
			return p, []*baseline.Certs{&p.Certs}
		},
		kinds: always(vcKind),
	},
	{
		name: "cogsworth",
		build: func(u *baselinetest.Unit) (pacemaker.Pacemaker, []*baseline.Certs) {
			p := cogsworth.New(u.Cfg, u.EP, u.Sched, u.Suite, u.Drv, nil, nil)
			return p, []*baseline.Certs{&p.Certs}
		},
		kinds: always(wishKind),
	},
	{
		name: "nk20",
		build: func(u *baselinetest.Unit) (pacemaker.Pacemaker, []*baseline.Certs) {
			p := nk20.New(u.Cfg, u.EP, u.Sched, u.Suite, u.Drv, nil, nil)
			return p, []*baseline.Certs{&p.Certs}
		},
		kinds: always(timeoutKind),
	},
	lumiere(core.VariantBasic),
	lumiere(core.VariantFull),
}

// run is one processor of one protocol under the contract test. Every
// message goes through handle, which checks that the view never
// decreases and that Lumiere's invariant checker stays silent.
type run struct {
	t *testing.T
	protocol
	*baselinetest.Unit
	pm    pacemaker.Pacemaker
	certs []*baseline.Certs
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
	if l, ok := r.pm.(*core.Pacemaker); ok && len(l.Violations()) > 0 {
		r.t.Fatalf("Lemma 5.1-5.3 checker: %v", l.Violations())
	}
}

func (r *run) handle(from types.NodeID, m msg.Message) {
	r.t.Helper()
	r.pm.Handle(from, m)
	r.checkView()
}

// live returns the number of views holding a vote set.
func (r *run) live() (n int) {
	for _, c := range r.certs {
		n += c.Live()
	}
	return n
}

// entry is the kind of certificate that enters even view v.
func (r *run) entry(v types.View) kind { return r.kinds(v)[0] }

// syncFrom is signer's synchronization message of kind k for view v.
func (r *run) syncFrom(k kind, signer types.NodeID, v types.View) msg.Message {
	return k.sync(v, r.Sign(signer, k.stmt(v)))
}

// certFor is view v's certificate of kind k with the given number of
// signers.
func (r *run) certFor(k kind, v types.View, signers int) msg.Message {
	return k.cert(v, r.Cert(k.stmt(v), signers))
}

// formed returns the certificates of kind k for view v the processor
// broadcast.
func (r *run) formed(k kind, v types.View) (out []msg.Message) {
	want := k.cert(v, crypto.Aggregate{}).Kind()
	for _, m := range r.EP.Bcasts {
		if m.Kind() == want && m.View() == v {
			out = append(out, m)
		}
	}
	return out
}

// collects reports whether the processor collects view v's messages of
// kind k.
func (r *run) collects(k kind, v types.View) bool {
	return !k.leaderOnly || r.pm.Leader(v) == r.EP.Node
}

// collectedView returns the first even view from 2 whose entry
// certificate the processor assembles.
func (r *run) collectedView() types.View {
	for v := types.View(2); ; v += 2 {
		if r.collects(r.entry(v), v) {
			return v
		}
	}
}

// enter moves the processor from view v-1 into view v.
func (r *run) enter(v types.View) {
	r.t.Helper()
	switch {
	case v%2 == 0:
		for _, k := range r.kinds(v) {
			if !r.collects(k, v) {
				r.handle(1, r.certFor(k, v, k.threshold))
				continue
			}
			// The processor assembles the certificate itself; the
			// endpoint does not loop broadcasts back, so the test does.
			for i := 1; i <= k.threshold; i++ {
				r.handle(types.NodeID(i), r.syncFrom(k, types.NodeID(i), v))
			}
			if k.silent {
				continue
			}
			certs := r.formed(k, v)
			if len(certs) != 1 {
				r.t.Fatalf("view %v: %d certificates broadcast at threshold, want 1", v, len(certs))
			}
			r.handle(r.EP.Node, certs[0])
		}
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

// TestBaselineContract checks what every pacemaker — the five baselines
// and both Lumiere variants — owes the harness, whatever its
// synchronization mechanism.
func TestBaselineContract(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name+"/forged signer ignored", func(t *testing.T) {
			r := start(t, p, 0)
			v := r.collectedView()
			k := r.entry(v)
			// Valid signatures, each delivered as if from another
			// processor.
			for i := 1; i <= k.threshold; i++ {
				r.handle(types.NodeID((i+1)%r.Cfg.N), r.syncFrom(k, types.NodeID(i), v))
			}
			if n := len(r.formed(k, v)); n != 0 || r.live() != 0 {
				t.Fatalf("forged senders produced %d certificates, %d live vote sets", n, r.live())
			}
			// The same signatures from their signers form the
			// certificate, once: a further vote adds nothing.
			for i := 0; i <= k.threshold; i++ {
				id := types.NodeID((i + 1) % r.Cfg.N)
				r.handle(id, r.syncFrom(k, id, v))
			}
			if n := len(r.formed(k, v)); n != 1 {
				t.Fatalf("%d certificates broadcast for %d votes at threshold %d, want 1", n, k.threshold+1, k.threshold)
			}
		})
		t.Run(p.name+"/certificate checked and acted on once", func(t *testing.T) {
			r := start(t, p, 3)
			before, k := r.pm.CurrentView(), r.entry(2)
			r.handle(1, r.certFor(k, 2, k.threshold-1))
			r.handle(1, k.cert(2, r.Cert(k.stmt(4), k.threshold)))
			if got := r.pm.CurrentView(); got != before {
				t.Fatalf("undersized or wrong-statement certificate moved the view %v -> %v", before, got)
			}
			valid := r.certFor(k, 2, k.threshold)
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
				even := v - v%2
				r.handle(1, r.certFor(r.entry(even), even, r.entry(even).threshold))
			}
			started := r.Drv.Started
			if r.repeatsStart {
				started = slices.Compact(started)
			}
			starts := map[types.View]int{}
			for _, v := range started {
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
						v, r.pm.Leader(v), starts[v], want, started)
				}
			}
		})
		t.Run(p.name+"/per-view state is pruned", func(t *testing.T) {
			r := start(t, p, 0)
			for v := r.pm.CurrentView() + 1; v <= 220; v++ {
				r.enter(v)
			}
			if live := r.live(); live > 2 {
				t.Fatalf("%d live vote sets after 220 views, want a constant ≤ 2", live)
			}
			// The allocation half runs on a fresh processor, so its
			// first window is measured after 64 views; under the race
			// detector allocgate skips it.
			r = start(t, p, 0)
			next := r.pm.CurrentView() + 1
			// window enters 16 views — a whole number of every
			// protocol's leader and epoch periods, so any two
			// windows do the same work (full Lumiere's 40-view
			// epochs excepted: a window holds at most one epoch
			// entry) — and returns the mean allocations per view.
			// The recorders are emptied first, so their growth is
			// not measured.
			window := func() float64 {
				r.EP.Bcasts, r.EP.Sends = r.EP.Bcasts[:0], r.EP.Sends[:0]
				r.Drv.Entered, r.Drv.Started, r.Drv.Deadlines = r.Drv.Entered[:0], r.Drv.Started[:0], r.Drv.Deadlines[:0]
				return allocgate.PerRun(t, 16, func() {
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
			if late := window(); late > early {
				t.Fatalf("a view costs %.0f allocations after %d views, %.0f after 64: per-view state grows", late, next-1, early)
			}
		})
	}
}
