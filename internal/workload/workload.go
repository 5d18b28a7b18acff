// Package workload simulates client populations driving the SMR layer:
// open-loop clients that offer an exact command rate regardless of system
// speed.
//
// The package is runtime-agnostic: the Engine generates command payloads
// and tracks submit→commit bookkeeping, while the caller (the harness
// injector) owns scheduling and fan-out. Everything is deterministic —
// client identities derive from command indices by a splitmix64 hash, so
// populations of 10⁵–10⁷ logical clients cost O(commands injected)
// memory, not O(population).
//
// Pacing is accumulator-based: command i is due at ⌊(i+1)·10⁹/rate⌋ ns,
// so exactly `rate` commands are due in every whole second at any rate —
// unlike interval pacing (⌊10⁹/rate⌋ ns between commands), which drifts
// above the requested rate for non-divisor rates and degenerates once the
// truncated interval reaches zero.
//
// The command-generation hot path is allocation-pinned: payloads are
// bump-allocated from reusable 64 KiB blocks and per-command records live
// in one append-only slice, so a warm engine allocates only when a block
// or the record slice fills (amortized well under one allocation per
// command; see TestWorkloadAllocs).
package workload

import (
	"bytes"
	"strconv"
	"time"
)

// IDBase offsets workload command IDs away from the ID space replicas
// use for locally submitted commands (hotstuff.Core.Submit derives IDs
// from the replica's node ID).
const IDBase = uint64(1) << 40

// Pacer schedules an exact offered load: command i (0-based) is due at
// elapsed time ⌊(i+1)·10⁹/rate⌋ ns. The schedule is exact in the sense
// that for every horizon T, exactly DueBy(rate, T) commands are due —
// ⌊rate·k⌋ after k whole seconds — with no accumulated drift and no
// degenerate clamp at high rates (rates above 10⁹/s simply share
// nanosecond timestamps). Rates up to ~10⁹/s are supported for runs up
// to ~9·10⁹ commands (int64 headroom).
type Pacer struct {
	rate int64
	i    int64
}

// NewPacer creates a pacer for rate commands per second (a rate below 1
// paces at 1).
func NewPacer(rate int64) *Pacer {
	return &Pacer{rate: max(rate, 1)}
}

// NextAtNs returns the due time (elapsed ns) of the next command.
func (p *Pacer) NextAtNs() int64 { return (p.i + 1) * int64(time.Second) / p.rate }

// Take consumes the next command and returns its index.
func (p *Pacer) Take() int64 {
	i := p.i
	p.i++
	return i
}

// DueBy returns how many commands of the schedule are due by elapsed
// time tNs: the count of i ≥ 0 with ⌊(i+1)·10⁹/rate⌋ ≤ tNs. The
// computation is decomposed to stay exact without 128-bit arithmetic.
func DueBy(rate, tNs int64) int64 {
	if rate < 1 || tNs < 0 {
		return 0
	}
	// count = ⌊((tNs+1)·rate − 1) / 10⁹⌋, from
	// ⌊m·10⁹/rate⌋ ≤ t ⟺ m·10⁹ < (t+1)·rate.
	const ns = int64(time.Second)
	a := tNs + 1
	hi, lo := a/ns, a%ns
	if lo == 0 {
		return hi*rate - 1
	}
	return hi*rate + (lo*rate-1)/ns
}

// Config describes a client population.
type Config struct {
	// Clients is the logical population size (default 1). Commands are
	// attributed to clients by hashing the command index, so engine
	// state does not grow with the population.
	Clients int64
	// Rate is the offered load: the exact injection rate in commands
	// per second.
	Rate int64
	// Closed is never honoured: every population is open loop, and
	// harness.Scenario.Validate rejects Closed = true.
	//
	// Deprecated: leave it unset. It remains because the repository
	// benchmark (benchmark/) reads it.
	Closed bool
	// PayloadPad appends this many filler bytes to every written
	// command, modelling application payload; the words accounting
	// charges proposals ⌈payload bytes/32⌉ words (msg.PayloadWords).
	PayloadPad int
	// Command, when set, builds every payload instead of the client
	// SET: it appends command i's bytes to b and returns the result.
	// b is the engine's bump block, so an appender that fits allocates
	// nothing; one that outgrows the block gets its own allocation and
	// leaves the block untouched. PayloadPad does not apply.
	Command func(b []byte, i int64) []byte
}

func (c Config) clients() int64 {
	if c.Clients < 1 {
		return 1
	}
	return c.Clients
}

// Commit describes the first commit of one command.
type Commit struct {
	// Latency is submit→first-commit in nanoseconds.
	Latency time.Duration
}

// cmdRec is the engine's per-command bookkeeping: one fixed-size record
// per injected command, appended in submission order (command ID =
// IDBase + record index).
type cmdRec struct {
	submitNs int64
	latNs    int64 // -1 until first commit
}

const genBlockSize = 1 << 16

// Engine generates one execution's command stream. It is not safe for
// concurrent use: the simulator is single-threaded, and each simulated
// execution builds its own engine.
type Engine struct {
	cfg       Config
	pacer     Pacer
	recs      []cmdRec
	buf       []byte // current bump block for payload bytes
	off       int
	pad       []byte
	committed int64
}

// NewEngine creates an engine for one execution.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, pacer: *NewPacer(cfg.Rate), pad: bytes.Repeat([]byte{'x'}, cfg.PayloadPad)}
}

// Config returns the population configuration.
func (e *Engine) Config() Config { return e.cfg }

// NextDueNs returns the due time (elapsed ns) of the next paced
// submission.
func (e *Engine) NextDueNs() int64 { return e.pacer.NextAtNs() }

// SubmitNext issues the next paced command at elapsed time nowNs and
// returns its ID and payload. The payload is bump-allocated and never
// written again.
func (e *Engine) SubmitNext(nowNs int64) (uint64, []byte) {
	i := e.pacer.Take()
	client := int64(splitmix64(uint64(i)) % uint64(e.cfg.clients()))
	e.recs = append(e.recs, cmdRec{submitNs: nowNs, latNs: -1})
	return IDBase + uint64(i), e.gen(i, client)
}

// gen builds the command payload in the current bump block, capped at
// its own length: Config.Command's bytes when set, else a SET of the
// client's key.
func (e *Engine) gen(idx, client int64) []byte {
	need := 8 + 20 + 20 + len(e.pad) // the longest SET
	if e.cfg.Command != nil {
		need = 1 // the appender may outgrow the block
	}
	if cap(e.buf)-e.off < need {
		e.buf, e.off = make([]byte, max(need, genBlockSize)), 0
	}
	room := cap(e.buf) - e.off
	b := e.buf[e.off:e.off]
	if e.cfg.Command != nil {
		b = e.cfg.Command(b, idx)
	} else {
		b = append(b, "SET c"...)
		b = strconv.AppendInt(b, client, 10)
		b = append(b, ' ', 'v')
		b = strconv.AppendInt(b, idx, 10)
		b = append(b, e.pad...)
	}
	if len(b) <= room {
		e.off += len(b)
	} else if len(b) <= genBlockSize {
		// append moved b to its own allocation; the next command
		// starts a fresh block.
		e.buf, e.off = nil, 0
	}
	return b[:len(b):len(b)]
}

// OnCommit records the commit of command id at elapsed time atNs and
// returns its first-commit event. Repeat commits (the same command
// committing on other replicas) and foreign IDs return ok = false.
func (e *Engine) OnCommit(id uint64, atNs int64) (Commit, bool) {
	if id < IDBase {
		return Commit{}, false
	}
	idx := id - IDBase
	if idx >= uint64(len(e.recs)) {
		return Commit{}, false
	}
	r := &e.recs[idx]
	if r.latNs >= 0 {
		return Commit{}, false
	}
	r.latNs = atNs - r.submitNs
	e.committed++
	return Commit{Latency: time.Duration(r.latNs)}, true
}

// Submitted returns the number of commands issued so far.
func (e *Engine) Submitted() int64 { return int64(len(e.recs)) }

// Committed returns the number of commands whose first commit has been
// recorded.
func (e *Engine) Committed() int64 { return e.committed }

// splitmix64 is the finalizer of the splitmix64 generator — the same
// mix the sweep engine uses for per-cell seeds — here mapping command
// indices onto the client population.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
