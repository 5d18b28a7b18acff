package statemachine

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzKVApply runs the store against a map[string]string model, the
// parser it replaced (splitNApply). The input is a command sequence, one
// command per '\n'-separated line. After every command the result bytes,
// the error class, Len and Get of the command's key must agree with the
// model's; at the end, Get of every model key and Summary. TCP nodes
// apply client bytes through this code.
func FuzzKVApply(f *testing.F) {
	f.Add([]byte("SET a 1"))
	f.Add([]byte("GET a"))
	f.Add([]byte("DEL a"))
	f.Add([]byte(""))
	f.Add([]byte("SET"))
	f.Add([]byte{0xff, 0x00, 0xfe})
	f.Add([]byte("SET a 1\nGET a\nDEL a\nGET a\nSET a 2\nGET a"))
	f.Add([]byte("SET  x\nSET a  b c \nGET \nDEL \nGET \nGET a"))
	f.Add([]byte("SET k aaaaaaaa\nSET k a\nSET j b\nSET k aaaaaaaaaa\nDEL j\nSET k \nDEL k\nSET k z"))
	f.Fuzz(func(t *testing.T, in []byte) {
		kv, model := NewKV(), map[string]string{}
		for _, cmd := range bytes.Split(in, []byte("\n")) {
			got, err := kv.Apply(cmd)
			want, wantErr := splitNApply(model, string(cmd))
			if string(got) != want || !errors.Is(err, wantErr) || (err != nil && got != nil) {
				t.Fatalf("%q: result %q, err %v; model %q, %v", cmd, got, err, want, wantErr)
			}
			if kv.Len() != len(model) {
				t.Fatalf("after %q: %d keys, model %d", cmd, kv.Len(), len(model))
			}
			if parts := strings.SplitN(string(cmd), " ", 3); len(parts) >= 2 {
				v, ok := kv.Get(parts[1])
				mv, mok := model[parts[1]]
				if v != mv || ok != mok {
					t.Fatalf("after %q: Get(%q) = %q, %v; model %q, %v", cmd, parts[1], v, ok, mv, mok)
				}
			}
		}
		for k, mv := range model {
			if v, ok := kv.Get(k); !ok || v != mv {
				t.Fatalf("Get(%q) = %q, %v; model %q", k, v, ok, mv)
			}
		}
		if got, want := kv.Summary(), modelSummary(model); got != want {
			t.Fatalf("summary %q, model %q", got, want)
		}
	})
}

// FuzzBankApply: arbitrary commands must never panic the bank or mint or
// destroy money outside OPEN.
func FuzzBankApply(f *testing.F) {
	f.Add([]byte("OPEN a 10"))
	f.Add([]byte("XFER a b 5"))
	f.Add([]byte("XFER a a 99999999999999999999"))
	f.Add([]byte("OPEN a -3"))
	f.Add([]byte("BAL"))
	f.Fuzz(func(t *testing.T, cmd []byte) {
		b := NewBank()
		b.Apply([]byte("OPEN a 10"))
		b.Apply([]byte("OPEN b 10"))
		before := b.TotalBalance()
		_, err := b.Apply(cmd)
		after := b.TotalBalance()
		// Only a successful OPEN may change the total.
		isOpen := err == nil && len(cmd) > 4 && string(cmd[:4]) == "OPEN"
		if !isOpen && after != before {
			t.Fatalf("command %q changed total %d -> %d (err=%v)", cmd, before, after, err)
		}
		if isOpen && after < before {
			t.Fatalf("OPEN decreased total: %q", cmd)
		}
	})
}
