// Package statemachine provides the replicated state machines executed by
// the SMR layer in examples and tests: a key-value store and a bank whose
// conservation-of-money invariant makes consistency violations loudly
// detectable.
//
// The key-value store's memory follows what it holds. Its byte blocks
// never exceed twice the live key and value bytes plus the newest block
// (at most 64 KiB, or one larger key and value), and its entry records
// and index grow with the most keys it has held at once; a store whose
// last key is deleted keeps one small entry chunk and at most one block.
package statemachine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// StateMachine is a deterministic command executor. Commands and results
// are opaque byte strings; determinism across replicas is the caller's
// obligation (commands must be self-contained).
type StateMachine interface {
	// Apply executes one committed command and returns its result,
	// which may be nil when the command yields nothing to report.
	Apply(cmd []byte) ([]byte, error)
	// Summary returns a human-readable digest of the current state,
	// identical across replicas that applied the same command
	// sequence.
	Summary() string
}

// Errors returned by the bundled state machines.
var (
	ErrBadCommand        = errors.New("statemachine: malformed command")
	ErrUnknownAccount    = errors.New("statemachine: unknown account")
	ErrInsufficientFunds = errors.New("statemachine: insufficient funds")
	ErrAccountExists     = errors.New("statemachine: account already open")
	ErrKeyNotFound       = errors.New("statemachine: key not found")
)

// ---------------------------------------------------------------------------
// Key-value store
// ---------------------------------------------------------------------------

// KV is a string key-value store. Commands:
//
//	SET <key> <value>
//	GET <key>
//	DEL <key>
//
// It holds no pointer per key. A SET copies the key and the value, side
// by side, into the newest byte block; a fixed-size entry record in a
// chunk of records says where they are, and a map from the key's hash to
// an entry reference finds it. Keys with equal hashes share the map slot
// and are chained through their entries, compared by bytes. The hash is
// maphash under a seed drawn per store, so keys a client chooses cannot
// aim at one chain. An overwrite that fits the value's room is written in
// place; otherwise the key and value are appended again and the old bytes
// are dead. Once dead bytes outnumber live ones, the live keys are copied
// into fresh blocks (see the package comment for the bound).
type KV struct {
	mu     sync.Mutex
	seed   maphash.Seed
	index  map[uint64]int32 // key hash → first entry of its chain
	chunks [][]kvEntry      // entry records; a reference is chunk<<chunkBits | slot
	free   int32            // first free entry, chained through next; -1 if none
	blocks [][]byte         // key and value bytes; the last block is filled next
	grow   int              // size of the next block, doubling up to maxBlock
	keys   int              // live keys
	live   int              // key and value bytes of live keys
	used   int              // bytes taken from blocks: live, dead and abandoned tails
}

// kvEntry locates one key and its value: the key's bytes at off in
// blocks[blk], the value right after them, with vcap bytes of room. A
// free entry has klen = -1.
type kvEntry struct {
	next                  int32 // next entry with the same hash, or next free entry; -1 ends
	blk                   int32
	off, klen, vlen, vcap int32
}

// Growth of a store: blocks of key and value bytes and chunks of entries
// start small, so a store with a few keys stays small, and double up to
// a cap, so a large one wastes little. A key and value longer than
// maxBlock get a block of their own.
const (
	minBlock  = 512
	maxBlock  = 64 << 10
	minChunk  = 16
	chunkBits = 12 // a chunk holds at most 1<<chunkBits = 4096 entries
)

// maxStored bounds a SET's key plus value, so every offset and length
// fits an entry's int32.
const maxStored = math.MaxInt32

var _ StateMachine = (*KV)(nil)

// NewKV creates an empty store.
func NewKV() *KV {
	return &KV{seed: maphash.MakeSeed(), index: make(map[uint64]int32), free: -1, grow: minBlock}
}

// okResult is the result of every successful SET and DEL.
var okResult = []byte("OK")

// Apply implements StateMachine. A command is a verb, one space and a key;
// SET's key ends at the next space and the rest, spaces included, is the
// value. A SET whose key and value exceed 2³¹−1 bytes together is
// malformed. A SET or DEL allocates nothing beyond its share of block,
// chunk and index growth; a GET hit returns a copy of the value. The "OK"
// result is one shared slice, not to be modified.
func (kv *KV) Apply(cmd []byte) ([]byte, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	verb, rest, ok := bytes.Cut(cmd, []byte(" "))
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBadCommand, cmd)
	}
	switch string(verb) {
	case "SET":
		if i := bytes.IndexByte(rest, ' '); i >= 0 && len(rest)-1 <= maxStored {
			key := rest[:i]
			kv.set(maphash.Bytes(kv.seed, key), key, rest[i+1:])
			return okResult, nil
		}
	case "GET":
		if bytes.IndexByte(rest, ' ') < 0 {
			ref, _ := kv.find(maphash.Bytes(kv.seed, rest), rest)
			if ref < 0 {
				// A missing key must be distinguishable from `SET k ""`:
				// closed-loop clients assert read-your-writes on this.
				return nil, fmt.Errorf("%w: %s", ErrKeyNotFound, rest)
			}
			return bytes.Clone(kv.value(kv.entry(ref))), nil
		}
	case "DEL":
		if bytes.IndexByte(rest, ' ') < 0 {
			kv.del(maphash.Bytes(kv.seed, rest), rest)
			return okResult, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrBadCommand, cmd)
}

// entry returns the record a reference names.
func (kv *KV) entry(ref int32) *kvEntry {
	return &kv.chunks[ref>>chunkBits][ref&(1<<chunkBits-1)]
}

// keyOf and value return an entry's bytes; they alias the block.
func (kv *KV) keyOf(e *kvEntry) []byte {
	return kv.blocks[e.blk][e.off : e.off+e.klen]
}

func (kv *KV) value(e *kvEntry) []byte {
	at := e.off + e.klen
	return kv.blocks[e.blk][at : at+e.vlen]
}

// find returns the entry holding key, whose hash is h, and the entry
// before it in its chain; -1 for a missing key or for the chain's head.
func (kv *KV) find(h uint64, key []byte) (ref, prev int32) {
	ref, ok := kv.index[h]
	if !ok {
		return -1, -1
	}
	prev = -1
	for ref >= 0 {
		e := kv.entry(ref)
		if bytes.Equal(kv.keyOf(e), key) {
			return ref, prev
		}
		prev, ref = ref, e.next
	}
	return -1, -1
}

// set stores val under key, whose hash is h. Apply passes the key's
// maphash; a test may pass any h, to put keys on one chain.
func (kv *KV) set(h uint64, key, val []byte) {
	if ref, _ := kv.find(h, key); ref >= 0 {
		e := kv.entry(ref)
		kv.live += len(val) - int(e.vlen)
		if len(val) <= int(e.vcap) {
			copy(kv.blocks[e.blk][e.off+e.klen:], val)
			e.vlen = int32(len(val))
		} else {
			e.blk, e.off = kv.store(key, val)
			e.vlen, e.vcap = int32(len(val)), int32(len(val))
		}
		kv.compactIfSparse()
		return
	}
	ref := kv.newEntry()
	blk, off := kv.store(key, val)
	next, ok := kv.index[h]
	if !ok {
		next = -1
	}
	*kv.entry(ref) = kvEntry{next: next, blk: blk, off: off, klen: int32(len(key)), vlen: int32(len(val)), vcap: int32(len(val))}
	kv.index[h] = ref
	kv.keys++
	kv.live += len(key) + len(val)
	kv.compactIfSparse()
}

// del removes key, whose hash is h, if present.
func (kv *KV) del(h uint64, key []byte) {
	ref, prev := kv.find(h, key)
	if ref < 0 {
		return
	}
	e := kv.entry(ref)
	switch {
	case prev >= 0:
		kv.entry(prev).next = e.next
	case e.next >= 0:
		kv.index[h] = e.next
	default:
		delete(kv.index, h)
	}
	kv.keys--
	kv.live -= int(e.klen + e.vlen)
	*e = kvEntry{next: kv.free, klen: -1}
	kv.free = ref
	kv.compactIfSparse()
}

// newEntry returns a free entry reference, reusing a deleted entry first.
func (kv *KV) newEntry() int32 {
	if ref := kv.free; ref >= 0 {
		kv.free = kv.entry(ref).next
		return ref
	}
	last := len(kv.chunks) - 1
	if last < 0 || len(kv.chunks[last]) == cap(kv.chunks[last]) {
		size := minChunk
		if last >= 0 {
			size = min(2*cap(kv.chunks[last]), 1<<chunkBits)
		}
		kv.chunks = append(kv.chunks, make([]kvEntry, 0, size))
		last++
	}
	c := kv.chunks[last]
	kv.chunks[last] = c[:len(c)+1]
	return int32(last<<chunkBits | len(c))
}

// store copies key and value into the newest block, starting a block when
// they do not fit; the old block's unused tail counts as used.
func (kv *KV) store(key, val []byte) (blk, off int32) {
	n := len(key) + len(val)
	last := len(kv.blocks) - 1
	if last < 0 || cap(kv.blocks[last])-len(kv.blocks[last]) < n {
		if last >= 0 {
			kv.used += cap(kv.blocks[last]) - len(kv.blocks[last])
		}
		kv.blocks = append(kv.blocks, make([]byte, 0, max(n, kv.grow)))
		kv.grow = min(2*kv.grow, maxBlock)
		last++
	}
	b := kv.blocks[last]
	off = int32(len(b))
	kv.blocks[last] = append(append(b, key...), val...)
	kv.used += n
	return int32(last), off
}

// compactIfSparse copies the live keys and values into fresh blocks once
// dead bytes outnumber live ones, so the blocks never hold more than
// twice the live bytes plus the newest block's unused room.
func (kv *KV) compactIfSparse() {
	if kv.used-kv.live <= kv.live {
		return
	}
	if kv.keys == 0 {
		// An emptied store keeps its first entry chunk and its newest
		// block, unless that block is oversized, for the next keys.
		b, c := kv.blocks[len(kv.blocks)-1][:0], kv.chunks[0][:0]
		clear(kv.blocks)
		clear(kv.chunks)
		kv.blocks, kv.chunks = kv.blocks[:0], append(kv.chunks[:0], c)
		if cap(b) <= maxBlock {
			kv.blocks = append(kv.blocks, b)
		}
		kv.used, kv.free = 0, -1
		return
	}
	old := kv.blocks
	kv.blocks, kv.used = nil, 0
	kv.grow = min(max(kv.live, minBlock), maxBlock)
	for _, c := range kv.chunks {
		for i := range c {
			e := &c[i]
			if e.klen < 0 {
				continue
			}
			at := e.off + e.klen
			b := old[e.blk]
			e.blk, e.off = kv.store(b[e.off:at], b[at:at+e.vlen])
			e.vcap = e.vlen
		}
	}
}

// Len returns the number of keys.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.keys
}

// Get reads a key directly (for assertions).
func (kv *KV) Get(key string) (string, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	k := []byte(key)
	ref, _ := kv.find(maphash.Bytes(kv.seed, k), k)
	if ref < 0 {
		return "", false
	}
	return string(kv.value(kv.entry(ref))), true
}

// Summary implements StateMachine: every key=value; in key order.
func (kv *KV) Summary() string {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	live := make([]*kvEntry, 0, kv.keys)
	for _, c := range kv.chunks {
		for i := range c {
			if c[i].klen >= 0 {
				live = append(live, &c[i])
			}
		}
	}
	slices.SortFunc(live, func(a, b *kvEntry) int { return bytes.Compare(kv.keyOf(a), kv.keyOf(b)) })
	var b strings.Builder
	b.Grow(kv.live + 2*kv.keys)
	for _, e := range live {
		b.Write(kv.keyOf(e))
		b.WriteByte('=')
		b.Write(kv.value(e))
		b.WriteByte(';')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Bank
// ---------------------------------------------------------------------------

// Bank is an account ledger. Commands:
//
//	OPEN <account> <balance>
//	XFER <from> <to> <amount>
//	BAL <account>
//
// Total money is conserved by XFER; tests use TotalBalance as a
// consistency canary.
type Bank struct {
	mu       sync.Mutex
	accounts map[string]int64
}

var _ StateMachine = (*Bank)(nil)

// NewBank creates an empty bank.
func NewBank() *Bank { return &Bank{accounts: make(map[string]int64)} }

// Apply implements StateMachine.
func (b *Bank) Apply(cmd []byte) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	parts := strings.Fields(string(cmd))
	switch {
	case len(parts) == 3 && parts[0] == "OPEN":
		amt, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil || amt < 0 {
			return nil, fmt.Errorf("%w: %q", ErrBadCommand, cmd)
		}
		if _, ok := b.accounts[parts[1]]; ok {
			// A retried OPEN (e.g. after a dropped response) must not
			// mint money: the conservation canary counts successful
			// OPENs, so re-OPEN is an error, not an increment.
			return nil, fmt.Errorf("%w: %s", ErrAccountExists, parts[1])
		}
		b.accounts[parts[1]] = amt
		return []byte("OK"), nil
	case len(parts) == 4 && parts[0] == "XFER":
		amt, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil || amt < 0 {
			return nil, fmt.Errorf("%w: %q", ErrBadCommand, cmd)
		}
		from, to := parts[1], parts[2]
		if _, ok := b.accounts[from]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownAccount, from)
		}
		if _, ok := b.accounts[to]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownAccount, to)
		}
		if b.accounts[from] < amt {
			return nil, fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientFunds, from, b.accounts[from], amt)
		}
		b.accounts[from] -= amt
		b.accounts[to] += amt
		return []byte("OK"), nil
	case len(parts) == 2 && parts[0] == "BAL":
		bal, ok := b.accounts[parts[1]]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownAccount, parts[1])
		}
		return []byte(strconv.FormatInt(bal, 10)), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrBadCommand, cmd)
	}
}

// TotalBalance sums all accounts (conserved by XFER).
func (b *Bank) TotalBalance() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total int64
	for _, v := range b.accounts {
		total += v
	}
	return total
}

// Balance reads one account directly (for assertions).
func (b *Bank) Balance(account string) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.accounts[account]
	return v, ok
}

// Summary implements StateMachine.
func (b *Bank) Summary() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.accounts))
	for k := range b.accounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d;", k, b.accounts[k])
	}
	return sb.String()
}

// Counter is a trivial state machine counting applied commands; useful
// for throughput measurements.
type Counter struct {
	mu sync.Mutex
	n  int64
}

var _ StateMachine = (*Counter)(nil)

// NewCounter creates a Counter.
func NewCounter() *Counter { return &Counter{} }

// Apply implements StateMachine. It counts the command and returns a nil
// result: the count is read through Count and Summary.
func (c *Counter) Apply([]byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return nil, nil
}

// Count returns the number of applied commands.
func (c *Counter) Count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Summary implements StateMachine.
func (c *Counter) Summary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strconv.FormatInt(c.n, 10)
}
