package statemachine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
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
	var want strings.Builder
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&want, "%s=%s;", k, ref[k])
	}
	if kv.Summary() != want.String() {
		t.Fatalf("state %q, reference %q", kv.Summary(), want.String())
	}
}

// TestKVApplyAllocs: a SET allocates its key and its value, nothing for
// parsing or for the result.
func TestKVApplyAllocs(t *testing.T) {
	kv := NewKV()
	cmd := []byte("SET some-key some-value-that-is-not-tiny")
	if n := testing.AllocsPerRun(100, func() { _, _ = kv.Apply(cmd) }); n > 2 {
		t.Errorf("SET: %v allocations, want at most 2", n)
	}
	del := []byte("DEL some-other-key")
	if n := testing.AllocsPerRun(100, func() { _, _ = kv.Apply(del) }); n != 0 {
		t.Errorf("DEL: %v allocations, want 0", n)
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
		if _, err := c.Apply(nil); err != nil {
			t.Fatal(err)
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
