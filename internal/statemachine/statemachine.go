// Package statemachine provides the replicated state machines executed by
// the SMR layer in examples and tests: a key-value store and a bank whose
// conservation-of-money invariant makes consistency violations loudly
// detectable.
package statemachine

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// StateMachine is a deterministic command executor. Commands and results
// are opaque byte strings; determinism across replicas is the caller's
// obligation (commands must be self-contained).
type StateMachine interface {
	// Apply executes one committed command and returns its result.
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
type KV struct {
	mu   sync.Mutex
	data map[string]string
}

var _ StateMachine = (*KV)(nil)

// NewKV creates an empty store.
func NewKV() *KV { return &KV{data: make(map[string]string)} }

// okResult is the result of every successful SET and DEL.
var okResult = []byte("OK")

// Apply implements StateMachine. A command is a verb, one space and a key;
// SET's key ends at the next space and the rest, spaces included, is the
// value. The "OK" result is one shared slice, not to be modified.
func (kv *KV) Apply(cmd []byte) ([]byte, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	verb, rest, ok := bytes.Cut(cmd, []byte(" "))
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBadCommand, cmd)
	}
	switch string(verb) {
	case "SET":
		if key, value, ok := bytes.Cut(rest, []byte(" ")); ok {
			kv.data[string(key)] = string(value)
			return okResult, nil
		}
	case "GET":
		if bytes.IndexByte(rest, ' ') < 0 {
			v, ok := kv.data[string(rest)]
			if !ok {
				// A missing key must be distinguishable from `SET k ""`:
				// closed-loop clients assert read-your-writes on this.
				return nil, fmt.Errorf("%w: %s", ErrKeyNotFound, rest)
			}
			return []byte(v), nil
		}
	case "DEL":
		if bytes.IndexByte(rest, ' ') < 0 {
			delete(kv.data, string(rest))
			return okResult, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrBadCommand, cmd)
}

// Len returns the number of keys.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.data)
}

// Get reads a key directly (for assertions).
func (kv *KV) Get(key string) (string, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	v, ok := kv.data[key]
	return v, ok
}

// Summary implements StateMachine.
func (kv *KV) Summary() string {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	keys := make([]string, 0, len(kv.data))
	for k := range kv.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, kv.data[k])
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

// Apply implements StateMachine.
func (c *Counter) Apply([]byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return []byte(strconv.FormatInt(c.n, 10)), nil
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
