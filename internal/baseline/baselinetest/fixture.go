// Package baselinetest is the unit-test fixture the baseline pacemaker
// tests and the engines' round contract test (internal/viewcore) share:
// a recording endpoint and driver around one processor of an n = 4,
// f = 1, Δ = 100 ms system on a simulated scheduler, plus builders for
// the certificates the tests feed it.
package baselinetest

import (
	"time"

	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// Sent is one point-to-point send an Endpoint recorded.
type Sent struct {
	To types.NodeID
	M  msg.Message
}

// Endpoint is a network.Endpoint that records traffic instead of
// delivering it (broadcasts do not loop back).
type Endpoint struct {
	Node   types.NodeID
	Bcasts []msg.Message
	Sends  []Sent
}

var _ network.Endpoint = (*Endpoint)(nil)

// ID implements network.Endpoint.
func (e *Endpoint) ID() types.NodeID { return e.Node }

// Send implements network.Endpoint.
func (e *Endpoint) Send(to types.NodeID, m msg.Message) { e.Sends = append(e.Sends, Sent{to, m}) }

// Broadcast implements network.Endpoint.
func (e *Endpoint) Broadcast(m msg.Message) { e.Bcasts = append(e.Bcasts, m) }

// CountBcast returns the number of recorded broadcasts of kind k.
func (e *Endpoint) CountBcast(k msg.Kind) (n int) {
	for _, m := range e.Bcasts {
		if m.Kind() == k {
			n++
		}
	}
	return n
}

// Driver is a pacemaker.Driver that records the views it was told to
// enter and to lead, and the QC deadline given with each led view.
type Driver struct {
	Entered, Started []types.View
	Deadlines        []types.Time
}

var _ pacemaker.Driver = (*Driver)(nil)

// EnterView implements pacemaker.Driver.
func (d *Driver) EnterView(v types.View) { d.Entered = append(d.Entered, v) }

// LeaderStart implements pacemaker.Driver.
func (d *Driver) LeaderStart(v types.View, deadline types.Time) {
	d.Started = append(d.Started, v)
	d.Deadlines = append(d.Deadlines, deadline)
}

// Unit is everything a baseline constructor takes, for one processor.
type Unit struct {
	Cfg   types.Config
	Sched *sim.Scheduler
	Suite *crypto.SimSuite
	EP    *Endpoint
	Clk   *clock.Clock
	Drv   *Driver
}

// NewUnit wires processor id with its local clock starting at initial.
func NewUnit(id types.NodeID, initial types.Time) *Unit {
	sched := sim.New(1)
	return &Unit{
		Cfg:   types.NewConfig(1, 100*time.Millisecond),
		Sched: sched,
		Suite: crypto.NewSimSuite(4, 5),
		EP:    &Endpoint{Node: id},
		Clk:   clock.New(sched, initial),
		Drv:   &Driver{},
	}
}

// Sign returns processor from's signature over stmt.
func (u *Unit) Sign(from types.NodeID, stmt []byte) crypto.Signature {
	return u.Suite.SignerFor(from).Sign(stmt)
}

// Cert aggregates the signatures of processors 0..signers-1 over stmt.
func (u *Unit) Cert(stmt []byte, signers int) crypto.Aggregate {
	sigs := make([]crypto.Signature, signers)
	for i := range sigs {
		sigs[i] = u.Sign(types.NodeID(i), stmt)
	}
	agg, err := u.Suite.Aggregate(stmt, sigs)
	if err != nil {
		panic(err)
	}
	return agg
}

// QC returns a quorum certificate for view v over the zero block hash.
func (u *Unit) QC(v types.View) *msg.QC {
	var h [32]byte
	return &msg.QC{V: v, BlockHash: h, Agg: u.Cert(msg.VoteStatement(v, h), u.Cfg.Quorum())}
}
