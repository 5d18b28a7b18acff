package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lumiere/internal/crypto"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/nettcp"
	"lumiere/internal/network"
	"lumiere/internal/quorum"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// Isolated kernels (README "T2"): for work that sits behind unexported
// boundaries the traced run cannot wrap, the layer's public functions
// are timed on inputs shaped like the workload — the same n, quorum
// 2f+1, the same message kinds — and reported as ns per operation.

// kernelBudget is how long one kernel measures.
const kernelBudget = 40 * time.Millisecond

// nsPerOp calls op in growing batches until kernelBudget has passed and
// returns the mean nanoseconds per call.
func nsPerOp(op func()) float64 {
	op() // warm
	var iters int
	var spent time.Duration
	for batch := 1; spent < kernelBudget; batch *= 2 {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		spent += time.Since(t0)
		iters += batch
	}
	return float64(spent) / float64(iters)
}

// certificate builds a quorum certificate over stmt signed by the first
// q nodes of suite.
func certificate(suite crypto.Suite, stmt []byte, q int) crypto.Aggregate {
	sigs := make([]crypto.Signature, q)
	for i := range sigs {
		sigs[i] = suite.SignerFor(types.NodeID(i)).Sign(stmt)
	}
	agg, err := suite.Aggregate(stmt, sigs)
	if err != nil {
		panic("kernel: aggregate of fresh signatures failed: " + err.Error())
	}
	return agg
}

// cloneAggregate deep-copies a certificate, as one re-assembled by
// another sender would arrive: equal content, different backing arrays.
func cloneAggregate(a crypto.Aggregate) crypto.Aggregate {
	c := crypto.Aggregate{Signers: append([]types.NodeID(nil), a.Signers...), Bytes: make([][]byte, len(a.Bytes))}
	for i, b := range a.Bytes {
		c.Bytes[i] = append([]byte(nil), b...)
	}
	return c
}

// simKernels times the simulator-side layers at the workload's n.
func simKernels(o *outcome, n, f int) {
	q := 2*f + 1
	var hash [32]byte
	stmt := msg.VoteStatement(7, hash)

	suite := crypto.NewSimSuite(n, 1)
	signer := suite.SignerFor(0)
	o.Values["crypto.sim.sign_ns"] = nsPerOp(func() { signer.Sign(stmt) })

	// Miss path: every call sees a certificate whose backing arrays the
	// suite has not met (below crypto's memo threshold that is every
	// call). Copies are made outside the timed region, one pass over them.
	agg := certificate(suite, stmt, q)
	copies := make([]crypto.Aggregate, 48)
	for i := range copies {
		copies[i] = cloneAggregate(agg)
	}
	t0 := time.Now()
	for i := range copies {
		if err := suite.VerifyAggregate(stmt, copies[i], q); err != nil {
			o.problemf("kernel: valid certificate rejected: %v", err)
		}
	}
	o.Values["crypto.sim.verify_agg_miss_ns"] = float64(time.Since(t0)) / float64(len(copies))
	// Hit path: the same certificate value again, as every recipient of
	// one simulated broadcast sees it.
	o.Values["crypto.sim.verify_agg_hit_ns"] = nsPerOp(func() { _ = suite.VerifyAggregate(stmt, agg, q) })

	// Scheduler: push and pop of closure events at scattered times.
	const heapEvents = 4096
	sched := sim.New(1)
	var tick types.Time
	nop := func() {}
	o.Values["sim.heap_op_ns"] = nsPerOp(func() {
		for i := 0; i < heapEvents; i++ {
			sched.At(tick+types.Time((i*7919)%heapEvents), nop)
		}
		tick += heapEvents
		sched.RunUntil(tick)
	}) / heapEvents

	// Multicast: one broadcast to n recipients at one delivery time (the
	// fixed-delay path), expanded and dispatched to the sink.
	msched := sim.New(1)
	msched.SetSink(func(types.NodeID, types.NodeID, any) {})
	vote := &msg.Vote{V: 7}
	o.Values["sim.multicast_ns_per_rcpt"] = nsPerOp(func() {
		at := msched.Now() + 1
		mc := msched.Multicast(0, vote)
		for to := 0; to < n; to++ {
			mc.Add(types.NodeID(to), at)
		}
		mc.Commit()
		msched.RunUntil(at)
	}) / float64(n)

	col := metrics.NewCollector(nil)
	var at types.Time
	o.Values["metrics.onsend_ns"] = nsPerOp(func() {
		at += 1000
		col.OnSend(0, 1, vote, at, true)
	})

	var vs quorum.VoteSet
	sigs := agg.Bytes
	o.Values["quorum.add_ns"] = nsPerOp(func() {
		vs.Reset(n)
		for i := 0; i < q; i++ {
			vs.Add(crypto.Signature{Signer: types.NodeID(i), Bytes: sigs[i]})
		}
	}) / float64(q)

	mix := kindMix(agg)
	o.Values["msg.words_ns"] = nsPerOp(func() {
		for _, m := range mix {
			kernelSink += msg.Words(m)
		}
	}) / float64(len(mix))
}

// kernelSink receives results a kernel computes only to be timed, so
// that the compiler cannot drop the computation.
var kernelSink int

// kindMix is one view's worth of message kinds: a proposal carrying a
// QC, a vote, the QC itself and a view message.
func kindMix(agg crypto.Aggregate) []msg.Message {
	qc := &msg.QC{V: 6, Agg: agg}
	return []msg.Message{
		&msg.Proposal{V: 7, Justify: qc, Block: make([]byte, 256)},
		&msg.Vote{V: 7, Sig: crypto.Signature{Signer: 1, Bytes: make([]byte, 64)}},
		qc,
		&msg.ViewMsg{V: 8, Sig: crypto.Signature{Signer: 1, Bytes: make([]byte, 64)}},
	}
}

// tcpKernels times the TCP-side layers at the workload's n: ed25519
// verification, and a two-transport loopback pair moving the workload's
// kind mix.
func tcpKernels(o *outcome, n, f int) {
	q := 2*f + 1
	var hash [32]byte
	stmt := msg.VoteStatement(7, hash)
	suite := crypto.NewEd25519Suite(n, 1)
	sig := suite.SignerFor(0).Sign(stmt)
	o.Values["crypto.ed.verify_ns"] = nsPerOp(func() { _ = suite.Verify(stmt, sig) })
	agg := certificate(suite, stmt, q)
	o.Values["crypto.ed.verify_agg_ns"] = nsPerOp(func() { _ = suite.VerifyAggregate(stmt, agg, q) })

	if err := pairKernel(o, kindMix(agg)); err != nil {
		o.problemf("kernel: nettcp pair: %v", err)
	}
}

// pairMessages is how many envelopes the pair kernel moves.
const pairMessages = 20_000

// pairKernel sends pairMessages envelopes from one Transport to another
// over loopback and waits for their delivery.
func pairKernel(o *outcome, mix []msg.Message) error {
	addrs, err := loopbackAddrs(2)
	if err != nil {
		return err
	}
	var muA, muB sync.Mutex
	var got atomic.Int64
	done := make(chan struct{})
	a := nettcp.New(0, addrs, &muA, network.HandlerFunc(func(types.NodeID, msg.Message) {}))
	b := nettcp.New(1, addrs, &muB, network.HandlerFunc(func(types.NodeID, msg.Message) {
		if got.Add(1) == pairMessages {
			close(done)
		}
	}))
	defer a.Close()
	defer b.Close()
	if err := a.Start(); err != nil {
		return err
	}
	if err := b.Start(); err != nil {
		return err
	}
	m := startMeter()
	for i := 0; i < pairMessages; i++ {
		// The peer queue holds 4096 envelopes and drops beyond it; stay
		// under it so that every envelope sent is one delivered.
		for int64(i)-got.Load() > 2048 {
			runtime.Gosched()
		}
		a.Send(1, mix[i%len(mix)])
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		o.problemf("kernel: nettcp pair delivered %d of %d envelopes", got.Load(), pairMessages)
	}
	wall, _, allocs := m.stop()
	o.Values["nettcp.pair.msgs_per_s"] = pairMessages / wall
	o.Values["nettcp.pair.us_per_msg"] = 1e6 * wall / pairMessages
	o.Values["nettcp.pair.allocs_per_msg"] = 1e6 * allocs / pairMessages
	return nil
}
