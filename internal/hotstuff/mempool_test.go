package hotstuff

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refPool is the mempool the FIFO-with-dead-entries pool replaced, kept
// as the reference model: every executed command is cut out of the slice
// where it sits, and a batch is the slice's head.
type refPool struct {
	pool            []Command
	inPool, applied map[uint64]bool
}

func (r *refPool) enqueue(cmd Command) {
	if r.inPool[cmd.ID] || r.applied[cmd.ID] {
		return
	}
	r.inPool[cmd.ID] = true
	r.pool = append(r.pool, cmd)
}

func (r *refPool) commit(cmds []Command) {
	for _, cmd := range cmds {
		if r.applied[cmd.ID] {
			continue
		}
		r.applied[cmd.ID] = true
		delete(r.inPool, cmd.ID)
		for i := range r.pool {
			if r.pool[i].ID == cmd.ID {
				r.pool = append(r.pool[:i], r.pool[i+1:]...)
				break
			}
		}
	}
}

func (r *refPool) batch(n int) []Command {
	return append([]Command(nil), r.pool[:min(n, len(r.pool))]...)
}

// poolRig is one core whose chain the test extends by hand: commit
// executes a block of the given commands on top of the last one.
type poolRig struct {
	core *Core
	tip  Hash
}

func newPoolRig(t *testing.T, batch int) *poolRig {
	core := newRig(t, 1, time.Millisecond, false).cores[0]
	core.cfg.BatchSize = batch
	core.sm = nil
	return &poolRig{core: core, tip: GenesisHash}
}

func (p *poolRig) commit(cmds []Command) {
	b := &Block{View: p.core.lastExec + 1, Parent: p.tip, Cmds: cmds}
	p.tip = b.HashOf()
	p.core.blocks[p.tip] = b
	p.core.execChain(b)
}

// TestMempoolMatchesSliceDeletePool drives the pool and the reference
// model with the same seeded random sequences of enqueues (with duplicate
// and already-applied IDs) and commits — a prefix of the pool, a random
// selection of it, the whole pool reversed (what a Byzantine leader would
// send to make dequeuing expensive), commands this replica never held —
// and requires the batch LeaderStart would propose, and MempoolLen, to
// equal the model's after every step.
func TestMempoolMatchesSliceDeletePool(t *testing.T) {
	const batch = 8
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newPoolRig(t, batch)
		ref := &refPool{inPool: map[uint64]bool{}, applied: map[uint64]bool{}}
		foreign := uint64(1 << 32)
		for step := 0; step < 60; step++ {
			var kind string
			switch k := rng.Intn(10); {
			case k < 5:
				kind = "enqueue"
				for i := rng.Intn(2 * batch); i >= 0; i-- {
					// A small ID space: some are queued already, some applied.
					cmd := Command{ID: uint64(rng.Intn(40 + 4*step)), Payload: []byte{byte(step)}}
					p.core.enqueue(cmd)
					ref.enqueue(cmd)
				}
			default:
				live := ref.batch(len(ref.pool))
				var cmds []Command
				switch k {
				case 5, 6:
					kind = "commit prefix"
					cmds = live[:rng.Intn(len(live)+1)]
				case 7:
					kind = "commit selection"
					rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
					cmds = live[:rng.Intn(len(live)+1)]
				case 8:
					kind = "commit reversed"
					for i, j := 0, len(live)-1; i < j; i, j = i+1, j-1 {
						live[i], live[j] = live[j], live[i]
					}
					cmds = live
				case 9:
					kind = "commit foreign"
					for i := rng.Intn(batch); i >= 0; i-- {
						foreign++
						cmds = append(cmds, Command{ID: foreign})
					}
					// ... mixed with IDs that may be queued, applied or
					// new, and some of this replica's own.
					for i := rng.Intn(4); i > 0; i-- {
						cmds = append(cmds, Command{ID: uint64(rng.Intn(40 + 4*step))})
					}
					cmds = append(cmds, live[:rng.Intn(len(live)+1)]...)
				}
				p.commit(cmds)
				ref.commit(cmds)
			}
			got, want := p.core.nextBatch(), ref.batch(batch)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("seed %d step %d (%s): batch %v, model %v", seed, step, kind, got, want)
			}
			if p.core.MempoolLen() != len(ref.pool) {
				t.Fatalf("seed %d step %d (%s): MempoolLen %d, model %d", seed, step, kind, p.core.MempoolLen(), len(ref.pool))
			}
			if n := len(p.core.mempool); n > 0 && !p.core.inPool[p.core.mempool[0].ID] {
				t.Fatalf("seed %d step %d (%s): dead entry at the head of %d", seed, step, kind, n)
			}
		}
	}
}

// TestMempoolBacklogDrains commits a 200 000-command backlog in blocks of
// 256. Cutting each command out of the slice moved the whole backlog once
// per command (about 10^12 bytes here); popping the head moves nothing.
func TestMempoolBacklogDrains(t *testing.T) {
	const backlog, batch = 200_000, 256
	p := newPoolRig(t, batch)
	payload := []byte("SET k v")
	for i := 0; i < backlog; i++ {
		p.core.EnqueueCommand(uint64(i), payload)
	}
	if p.core.MempoolLen() != backlog {
		t.Fatalf("MempoolLen = %d after enqueuing %d", p.core.MempoolLen(), backlog)
	}
	next := uint64(0)
	for left := backlog; left > 0; {
		cmds := p.core.nextBatch()
		if want := min(batch, left); len(cmds) != want {
			t.Fatalf("batch of %d with %d pending, want %d", len(cmds), left, want)
		}
		for _, cmd := range cmds {
			if cmd.ID != next {
				t.Fatalf("command %d proposed where %d was due", cmd.ID, next)
			}
			next++
		}
		p.commit(cmds)
		left -= len(cmds)
		if p.core.MempoolLen() != left || len(p.core.mempool) != left {
			t.Fatalf("after a commit: MempoolLen %d, %d entries held, want %d", p.core.MempoolLen(), len(p.core.mempool), left)
		}
	}
	if got := p.core.CommittedCount(); got != (backlog+batch-1)/batch {
		t.Fatalf("committed %d blocks", got)
	}
}
