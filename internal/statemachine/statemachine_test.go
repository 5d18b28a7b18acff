package statemachine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"lumiere/internal/allocgate"
)

func TestKVBasics(t *testing.T) {
	kv := NewKV()
	mustApply(t, kv, "SET a 1", "OK")
	mustApply(t, kv, "GET a", "1")
	mustApply(t, kv, "SET a hello world", "OK") // value may contain spaces
	mustApply(t, kv, "GET a", "hello world")
	mustApply(t, kv, "DEL a", "OK")
	if _, err := kv.Apply([]byte("GET a")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("GET of deleted key: err = %v, want ErrKeyNotFound", err)
	}
	if _, err := kv.Apply([]byte("NOPE x")); !errors.Is(err, ErrBadCommand) {
		t.Fatalf("bad command error = %v", err)
	}
	kv.Apply([]byte("SET k v"))
	if kv.Len() != 1 {
		t.Fatalf("len = %d", kv.Len())
	}
	if v, ok := kv.Get("k"); !ok || v != "v" {
		t.Fatal("Get failed")
	}
}

// TestKVGrammar pins the command grammar row by row: which inputs are
// malformed, and where a key and a value begin and end.
func TestKVGrammar(t *testing.T) {
	for _, cmd := range []string{"GET a b", "DEL a b", "SET a", "SET", "GET", "", " ", "SET\ta b", "set a b", "GET  a"} {
		kv := NewKV()
		if res, err := kv.Apply([]byte(cmd)); !errors.Is(err, ErrBadCommand) || res != nil || kv.Len() != 0 {
			t.Errorf("%q: result %q, err %v, %d keys; want ErrBadCommand", cmd, res, err, kv.Len())
		}
	}
	kv := NewKV()
	mustApply(t, kv, "SET k ", "OK") // the empty value
	if v, ok := kv.Get("k"); !ok || v != "" {
		t.Errorf("SET k ␠: k = %q, %v; want the empty value", v, ok)
	}
	mustApply(t, kv, "GET k", "")
	mustApply(t, kv, "SET  x", "OK") // the empty key
	if v, ok := kv.Get(""); !ok || v != "x" {
		t.Errorf("SET ␠␠x: key \"\" = %q, %v; want x", v, ok)
	}
	mustApply(t, kv, "GET ", "x")
	mustApply(t, kv, "SET a  b c ", "OK") // everything after the key's space
	mustApply(t, kv, "GET a", " b c ")
	mustApply(t, kv, "DEL ", "OK")
	if _, err := kv.Apply([]byte("GET ")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("GET of the deleted empty key: err = %v, want ErrKeyNotFound", err)
	}
	if _, err := kv.Apply([]byte("GET nope")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("GET miss: err = %v, want ErrKeyNotFound", err)
	}
}

// splitNApply is the parser KV.Apply had before it stopped building a
// string per command — strings.SplitN(cmd, " ", 3) — kept as the grammar's
// reference model.
func splitNApply(data map[string]string, cmd string) (string, error) {
	parts := strings.SplitN(cmd, " ", 3)
	switch {
	case len(parts) == 3 && parts[0] == "SET":
		data[parts[1]] = parts[2]
		return "OK", nil
	case len(parts) == 2 && parts[0] == "GET":
		if v, ok := data[parts[1]]; ok {
			return v, nil
		}
		return "", ErrKeyNotFound
	case len(parts) == 2 && parts[0] == "DEL":
		delete(data, parts[1])
		return "OK", nil
	}
	return "", ErrBadCommand
}

// TestKVMatchesSplitNGrammar applies every string of up to six tokens
// over {SET, GET, DEL, a, b, space} to one store and to the reference
// model, and requires the same result, the same error and the same state.
func TestKVMatchesSplitNGrammar(t *testing.T) {
	tokens := []string{"SET", "GET", "DEL", "a", "b", " "}
	kv, ref := NewKV(), map[string]string{}
	var walk func(prefix string, depth int)
	walk = func(prefix string, depth int) {
		got, err := kv.Apply([]byte(prefix))
		want, wantErr := splitNApply(ref, prefix)
		if string(got) != want || !errors.Is(err, wantErr) {
			t.Fatalf("%q: result %q, err %v; reference %q, %v", prefix, got, err, want, wantErr)
		}
		if depth == 0 {
			return
		}
		for _, tok := range tokens {
			walk(prefix+tok, depth-1)
		}
	}
	walk("", 6)
	if want := modelSummary(ref); kv.Summary() != want {
		t.Fatalf("state %q, reference %q", kv.Summary(), want)
	}
}

// modelSummary is KV.Summary of a map[string]string model.
func modelSummary(model map[string]string) string {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, model[k])
	}
	return b.String()
}

// TestKVCollisionChain puts three keys under one hash through set, the
// helper Apply calls with the key's maphash: each is found by its bytes,
// and unlinking the middle entry, then the head, then the last, leaves
// the rest reachable and finally frees the index slot.
func TestKVCollisionChain(t *testing.T) {
	kv := NewKV()
	const h = 7
	for i, k := range []string{"a", "b", "c"} {
		kv.set(h, []byte(k), []byte(fmt.Sprint(i)))
	}
	kv.set(h, []byte("b"), []byte("11")) // an overwrite inside the chain
	if len(kv.index) != 1 || kv.Len() != 3 || kv.Summary() != "a=0;b=11;c=2;" {
		t.Fatalf("%d index slots, %d keys, summary %q; want 1, 3, a=0;b=11;c=2;", len(kv.index), kv.Len(), kv.Summary())
	}
	lookup := func(k string) string {
		ref, _ := kv.find(h, []byte(k))
		if ref < 0 {
			return "<missing>"
		}
		return string(kv.value(kv.entry(ref)))
	}
	for _, step := range []struct{ del, want string }{
		{"b", "a=0 b=<missing> c=2"}, // the middle: the chain is c → b → a
		{"c", "a=0 b=<missing> c=<missing>"},
		{"a", "a=<missing> b=<missing> c=<missing>"},
	} {
		kv.del(h, []byte(step.del))
		if got := fmt.Sprintf("a=%s b=%s c=%s", lookup("a"), lookup("b"), lookup("c")); got != step.want {
			t.Fatalf("after deleting %s: %s, want %s", step.del, got, step.want)
		}
	}
	if len(kv.index) != 0 || kv.Len() != 0 {
		t.Fatalf("emptied chain: %d index slots, %d keys", len(kv.index), kv.Len())
	}
}

// TestKVDelThenSet: a deleted key is gone until it is set again, and the
// new SET reuses the deleted entry instead of taking another.
func TestKVDelThenSet(t *testing.T) {
	kv := NewKV()
	mustApply(t, kv, "SET a 1", "OK")
	mustApply(t, kv, "SET bb 2", "OK")
	mustApply(t, kv, "DEL a", "OK")
	if _, err := kv.Apply([]byte("GET a")); !errors.Is(err, ErrKeyNotFound) || kv.Len() != 1 {
		t.Fatalf("GET of deleted key: err = %v with %d keys; want ErrKeyNotFound, 1", err, kv.Len())
	}
	if kv.free < 0 {
		t.Fatal("DEL left no free entry")
	}
	mustApply(t, kv, "DEL a", "OK") // deleting a missing key is a no-op
	mustApply(t, kv, "SET a 3", "OK")
	if kv.free >= 0 || len(kv.chunks) != 1 || len(kv.chunks[0]) != 2 {
		t.Fatalf("re-SET took a new entry: free %d, chunk lengths %d", kv.free, len(kv.chunks[0]))
	}
	mustApply(t, kv, "GET a", "3")
	if kv.Len() != 2 || kv.Summary() != "a=3;bb=2;" {
		t.Fatalf("%d keys, summary %q", kv.Len(), kv.Summary())
	}
}

// TestKVOverwriteGrows: an overwrite that fits the value's room is
// written in place, takes no block bytes and keeps the room; one that
// does not moves the key and value to new bytes and leaves the other
// keys alone.
func TestKVOverwriteGrows(t *testing.T) {
	kv := NewKV()
	mustApply(t, kv, "SET k abc", "OK")
	mustApply(t, kv, "SET other a-value-long-enough-to-keep-compaction-away", "OK")
	used := kv.used
	mustApply(t, kv, "SET k xy", "OK") // shrinks in place
	mustApply(t, kv, "GET k", "xy")
	mustApply(t, kv, "SET k cba", "OK") // grows back into its room
	if kv.used != used {
		t.Fatalf("overwrites that fit took %d block bytes", kv.used-used)
	}
	mustApply(t, kv, "GET k", "cba")
	mustApply(t, kv, "SET k abcdef", "OK") // outgrows it
	if kv.used != used+len("kabcdef") {
		t.Fatalf("a moved key took %d block bytes, want %d", kv.used-used, len("kabcdef"))
	}
	mustApply(t, kv, "GET k", "abcdef")
	mustApply(t, kv, "GET other", "a-value-long-enough-to-keep-compaction-away")
	if kv.Len() != 2 || kv.Summary() != "k=abcdef;other=a-value-long-enough-to-keep-compaction-away;" {
		t.Fatalf("%d keys, summary %q", kv.Len(), kv.Summary())
	}
}

// TestKVCompactionBound: 10⁵ SETs over 64 keys, each value a byte longer
// than the key's last, move every key again and again. After each SET the
// blocks hold at most twice the live bytes plus the newest block, and the
// store matches a map. Deleting every key then leaves one entry chunk
// and one block, which the next SET and DEL reuse without allocating.
func TestKVCompactionBound(t *testing.T) {
	kv, model := NewKV(), map[string]string{}
	val := bytes.Repeat([]byte("v"), 100_000/64+1)
	var cmd []byte
	live, moved := 0, 0
	for i := 0; i < 100_000; i++ {
		key := fmt.Sprintf("key%02d", i%64)
		cmd = append(append(append(cmd[:0], "SET "...), key...), ' ')
		cmd = append(cmd, val[:i/64]...)
		mustApply(t, kv, string(cmd), "OK")
		if old, ok := model[key]; ok {
			live -= len(key) + len(old)
		}
		live += len(key) + i/64
		model[key] = string(val[:i/64])
		arena := 0
		for _, b := range kv.blocks {
			arena += cap(b)
		}
		newest := cap(kv.blocks[len(kv.blocks)-1])
		if kv.live != live || arena > 2*live+newest {
			t.Fatalf("SET %d: %d live bytes (model %d), %d arena bytes > 2×live + %d", i, kv.live, live, arena, newest)
		}
		moved += len(key) + i/64
	}
	if kv.Summary() != modelSummary(model) {
		t.Fatal("summary differs from the model")
	}
	if moved < 10*live {
		t.Fatalf("only %d bytes stored against %d live: compaction never needed", moved, live)
	}
	for k := range model {
		mustApply(t, kv, "DEL "+k, "OK")
	}
	if kv.Len() != 0 || len(kv.blocks) != 1 || len(kv.chunks) != 1 || len(kv.chunks[0]) != 0 || kv.used != 0 {
		t.Fatalf("emptied store: %d keys, %d blocks, %d chunks, %d used bytes; want 0, 1, 1 (empty), 0", kv.Len(), len(kv.blocks), len(kv.chunks), kv.used)
	}
	set, del := []byte("SET a value"), []byte("DEL a")
	if n := allocgate.PerRun(t, 100, func() { kv.Apply(set); kv.Apply(del) }); n != 0 {
		t.Errorf("SET and DEL on an emptied store: %v allocations, want 0", n)
	}
	if kv.Len() != 0 || kv.Summary() != "" {
		t.Fatalf("after SET and DEL: %d keys, summary %q", kv.Len(), kv.Summary())
	}
}

// TestKVApplyAllocs: a SET allocates nothing, whether it adds a key or
// overwrites one, and neither does a DEL. Only growth allocates — a new
// byte block, entry chunk or index table, a few per doubling — so the
// store's index is pre-sized and it is warmed until its newest block and
// entry chunk have room for every measured SET; the test checks that no
// block or chunk was added while it measured.
func TestKVApplyAllocs(t *testing.T) {
	const runs = 100
	kv := NewKV()
	kv.index = make(map[uint64]int32, 1<<14)
	cmds := make([][]byte, runs+1)
	for i := range cmds {
		cmds[i] = []byte(fmt.Sprintf("SET key-%03d some-value-that-is-not-tiny", i))
	}
	need := (runs + 1) * (len(cmds[0]) - len("SET "))
	for w := 0; ; w++ {
		kv.Apply([]byte(fmt.Sprintf("SET warm-%05d some-value-that-is-not-tiny", w)))
		b, c := kv.blocks[len(kv.blocks)-1], kv.chunks[len(kv.chunks)-1]
		if cap(b)-len(b) >= need && cap(c)-len(c) > runs {
			break
		}
	}
	blocks, chunks, keys := len(kv.blocks), len(kv.chunks), kv.Len()
	next := 0
	if n := allocgate.PerRun(t, runs, func() { _, _ = kv.Apply(cmds[next]); next++ }); n != 0 {
		t.Errorf("SET of a new key: %v allocations, want 0", n)
	}
	if kv.Len() != keys+len(cmds) {
		t.Fatalf("%d keys after %d SETs of distinct keys, want %d", kv.Len(), len(cmds), keys+len(cmds))
	}
	cmd := []byte("SET key-000 another-value-that-is-not-tiny")
	if n := allocgate.PerRun(t, runs, func() { _, _ = kv.Apply(cmd) }); n != 0 {
		t.Errorf("SET of an existing key: %v allocations, want 0", n)
	}
	if v, _ := kv.Get("key-000"); v != "another-value-that-is-not-tiny" {
		t.Fatalf("overwritten key-000 = %q", v)
	}
	del := []byte("DEL some-other-key")
	if n := allocgate.PerRun(t, runs, func() { _, _ = kv.Apply(del) }); n != 0 {
		t.Errorf("DEL: %v allocations, want 0", n)
	}
	if len(kv.blocks) != blocks || len(kv.chunks) != chunks {
		t.Fatalf("blocks %d → %d, chunks %d → %d while measuring: the warm-up left too little room", blocks, len(kv.blocks), chunks, len(kv.chunks))
	}
}

func mustApply(t *testing.T, sm StateMachine, cmd, want string) {
	t.Helper()
	got, err := sm.Apply([]byte(cmd))
	if err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	if string(got) != want {
		t.Fatalf("%s = %q, want %q", cmd, got, want)
	}
}

func TestKVSummaryDeterministic(t *testing.T) {
	a, b := NewKV(), NewKV()
	cmds := []string{"SET z 9", "SET a 1", "SET m 5"}
	for _, c := range cmds {
		a.Apply([]byte(c))
	}
	for _, c := range cmds {
		b.Apply([]byte(c))
	}
	if a.Summary() != b.Summary() {
		t.Fatal("summaries differ for identical histories")
	}
	if a.Summary() != "a=1;m=5;z=9;" {
		t.Fatalf("summary = %q", a.Summary())
	}
}

func TestBankOpenXferBal(t *testing.T) {
	b := NewBank()
	mustApply(t, b, "OPEN alice 100", "OK")
	mustApply(t, b, "OPEN bob 50", "OK")
	mustApply(t, b, "XFER alice bob 30", "OK")
	mustApply(t, b, "BAL alice", "70")
	mustApply(t, b, "BAL bob", "80")
	if b.TotalBalance() != 150 {
		t.Fatalf("total = %d", b.TotalBalance())
	}
}

func TestBankErrors(t *testing.T) {
	b := NewBank()
	b.Apply([]byte("OPEN a 10"))
	b.Apply([]byte("OPEN c 0"))
	cases := []struct {
		cmd string
		err error
	}{
		{"XFER a missing 1", ErrUnknownAccount},
		{"XFER missing a 1", ErrUnknownAccount},
		{"XFER a c 100", ErrInsufficientFunds},
		{"XFER a c -5", ErrBadCommand},
		{"OPEN a -1", ErrBadCommand},
		{"BAL missing", ErrUnknownAccount},
		{"garbage", ErrBadCommand},
	}
	for _, c := range cases {
		if _, err := b.Apply([]byte(c.cmd)); !errors.Is(err, c.err) {
			t.Errorf("%q: err = %v, want %v", c.cmd, err, c.err)
		}
	}
	if b.TotalBalance() != 10 {
		t.Fatalf("failed commands changed the total: %d", b.TotalBalance())
	}
}

// TestBankConservationQuick: random XFER sequences never change the total
// balance, whether they succeed or fail.
func TestBankConservationQuick(t *testing.T) {
	f := func(seed int64) bool {
		b := NewBank()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5; i++ {
			b.Apply([]byte(fmt.Sprintf("OPEN a%d 100", i)))
		}
		for i := 0; i < 200; i++ {
			cmd := fmt.Sprintf("XFER a%d a%d %d", rng.Intn(6), rng.Intn(6), rng.Intn(150))
			b.Apply([]byte(cmd))
		}
		return b.TotalBalance() == 500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	for i := 0; i < 5; i++ {
		if res, err := c.Apply(nil); err != nil || res != nil {
			t.Fatalf("Apply = %q, %v; want a nil result", res, err)
		}
	}
	if c.Count() != 5 || c.Summary() != "5" {
		t.Fatalf("count = %d summary = %s", c.Count(), c.Summary())
	}
}

// TestKVGetMissingDistinctFromEmpty: regression for the read-your-writes
// bug where GET of a missing key returned empty bytes indistinguishable
// from `SET k ""`. A closed-loop client must be able to tell the two
// apart.
func TestKVGetMissingDistinctFromEmpty(t *testing.T) {
	kv := NewKV()
	if _, err := kv.Apply([]byte("GET ghost")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("GET of never-set key: err = %v, want ErrKeyNotFound", err)
	}
	mustApply(t, kv, "SET ghost ", "OK") // explicit empty value
	got, err := kv.Apply([]byte("GET ghost"))
	if err != nil || string(got) != "" {
		t.Fatalf("GET of empty-valued key = (%q, %v), want (\"\", nil)", got, err)
	}
}

// TestBankReopenIsRejected: regression for the money-minting bug where a
// retried OPEN (client resends after a dropped response) silently added
// to the existing balance instead of failing.
func TestBankReopenIsRejected(t *testing.T) {
	b := NewBank()
	mustApply(t, b, "OPEN alice 100", "OK")
	if _, err := b.Apply([]byte("OPEN alice 100")); !errors.Is(err, ErrAccountExists) {
		t.Fatalf("retried OPEN: err = %v, want ErrAccountExists", err)
	}
	if v, _ := b.Balance("alice"); v != 100 {
		t.Fatalf("retried OPEN changed balance: %d", v)
	}
	if b.TotalBalance() != 100 {
		t.Fatalf("retried OPEN minted money: total = %d", b.TotalBalance())
	}
}

func TestBankBalanceAccessor(t *testing.T) {
	b := NewBank()
	b.Apply([]byte("OPEN x 7"))
	if v, ok := b.Balance("x"); !ok || v != 7 {
		t.Fatal("Balance accessor")
	}
	if _, ok := b.Balance("nope"); ok {
		t.Fatal("Balance found missing account")
	}
}
