// Package workload simulates client populations driving the SMR layer:
// open-loop clients that offer an exact command rate regardless of system
// speed, and closed-loop clients that each keep one command in flight and
// submit the next only after the previous one commits.
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

// Taken returns the number of commands consumed so far.
func (p *Pacer) Taken() int64 { return p.i }

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
	// Clients is the logical population size (default 1). Open-loop
	// commands are attributed to clients by hashing the command index,
	// so engine state does not grow with the population.
	Clients int64
	// Rate is the offered load in commands per second: the exact
	// injection rate for open-loop populations, and the initial ramp
	// rate at which closed-loop clients issue their first command.
	Rate int64
	// Closed selects closed-loop clients: each client keeps exactly one
	// command in flight and submits its next command when the previous
	// one commits (plus Think). The population is capped at the number
	// of clients the ramp has started.
	Closed bool
	// Think is the closed-loop delay between a client's commit and its
	// next submission (0 = immediate resubmission at commit time).
	Think time.Duration
	// PayloadPad appends this many filler bytes to every written
	// command, modelling application payload; the words accounting
	// charges proposals ⌈payload bytes/32⌉ words (msg.PayloadWords).
	PayloadPad int
	// Reads makes every odd-sequence closed-loop command a GET of the
	// client's own key instead of a SET, so a replay of the committed
	// stream asserts read-your-writes (a GET submitted only after the
	// client's SET committed must never see "not found").
	Reads bool
	// Command, when set, builds every payload instead of the client
	// SET/GET: it appends command i's bytes to b and returns the result.
	// b is the engine's bump block, so an appender that fits allocates
	// nothing; one that outgrows the block gets its own allocation and
	// leaves the block untouched. Reads and PayloadPad do not apply.
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
	// Client is the logical client that submitted the command; Seq is
	// the command's sequence number within that client (closed loop).
	Client int64
	Seq    int32
}

// cmdRec is the engine's per-command bookkeeping: one fixed-size record
// per injected command, appended in submission order (command ID =
// IDBase + record index).
type cmdRec struct {
	submitNs int64
	latNs    int64 // -1 until first commit
	client   int64
	seq      int32
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
// submission: the open-loop schedule, or the closed-loop initial ramp.
func (e *Engine) NextDueNs() int64 { return e.pacer.NextAtNs() }

// RampDone reports whether a closed-loop population has issued every
// client's first command; paced submission stops there and all further
// traffic is commit-driven. Open-loop populations never finish.
func (e *Engine) RampDone() bool { return e.cfg.Closed && e.pacer.Taken() >= e.cfg.clients() }

// SubmitNext issues the next paced command at elapsed time nowNs and
// returns its ID and payload. The payload is bump-allocated and never
// written again.
func (e *Engine) SubmitNext(nowNs int64) (uint64, []byte) {
	i := e.pacer.Take()
	client := i
	if !e.cfg.Closed {
		client = int64(splitmix64(uint64(i)) % uint64(e.cfg.clients()))
	}
	return e.submit(client, 0, nowNs)
}

// Resubmit issues the next command of a closed-loop client whose
// previous command (sequence seq-1) committed.
func (e *Engine) Resubmit(client int64, seq int32, nowNs int64) (uint64, []byte) {
	return e.submit(client, seq, nowNs)
}

func (e *Engine) submit(client int64, seq int32, nowNs int64) (uint64, []byte) {
	idx := int64(len(e.recs))
	e.recs = append(e.recs, cmdRec{submitNs: nowNs, latNs: -1, client: client, seq: seq})
	return IDBase + uint64(idx), e.gen(idx, client, seq)
}

// gen builds the command payload in the current bump block, capped at
// its own length: Config.Command's bytes when set, else GETs for
// odd-sequence read commands and SETs of the client's key otherwise.
func (e *Engine) gen(idx, client int64, seq int32) []byte {
	need := 8 + 20 + 20 + len(e.pad) // the longest SET
	if e.cfg.Command != nil {
		need = 1 // the appender may outgrow the block
	}
	if cap(e.buf)-e.off < need {
		e.buf, e.off = make([]byte, max(need, genBlockSize)), 0
	}
	room := cap(e.buf) - e.off
	b := e.buf[e.off:e.off]
	switch {
	case e.cfg.Command != nil:
		b = e.cfg.Command(b, idx)
	case e.cfg.Reads && seq%2 == 1:
		b = append(b, "GET c"...)
		b = strconv.AppendInt(b, client, 10)
	default:
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
	return Commit{Latency: time.Duration(r.latNs), Client: r.client, Seq: r.seq}, true
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
