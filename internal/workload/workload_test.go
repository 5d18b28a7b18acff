package workload

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"lumiere/internal/allocgate"
)

// TestPacerExactRate: regression for the truncating-interval injector.
// For every rate — divisor of 10⁹ or not — exactly `rate` commands are
// due in each whole second, with no drift and no clamp collapse.
func TestPacerExactRate(t *testing.T) {
	for _, rate := range []int64{1, 3, 7, 100, 999, 333333, 666667, 1_000_000, 50_000_000, 2_000_000_000} {
		p, taken := NewPacer(rate), int64(0)
		for sec := int64(1); sec <= 3; sec++ {
			horizon := sec * int64(time.Second)
			if rate > 10_000_000 {
				// Count analytically for huge rates. Commands due in
				// (0, horizon] — at sub-ns rates command 0 is due at t=0
				// and belongs to no whole second.
				if due := DueBy(rate, horizon) - DueBy(rate, 0); due != rate*sec {
					t.Fatalf("rate %d: DueBy(%ds) = %d, want %d", rate, sec, due, rate*sec)
				}
				continue
			}
			for p.NextAtNs() <= horizon {
				taken = p.Take() + 1
			}
			if taken != rate*sec {
				t.Fatalf("rate %d: %d commands due by %ds, want %d", rate, taken, sec, rate*sec)
			}
			if DueBy(rate, horizon) != rate*sec {
				t.Fatalf("rate %d: DueBy(%ds) = %d, want %d", rate, sec, DueBy(rate, horizon), rate*sec)
			}
		}
	}
}

// TestPacerBeatsTruncatedInterval demonstrates the fixed drift: at rate
// 666667 the legacy interval ⌊10⁹/rate⌋ = 1499 ns realizes ~667111
// commands per second — 444/s above the request — while the accumulator
// schedule stays exact.
func TestPacerBeatsTruncatedInterval(t *testing.T) {
	const rate = 666667
	interval := int64(time.Second) / rate // the old computation
	legacy := int64(time.Second) / interval
	if legacy == rate {
		t.Fatalf("test premise broken: interval pacing is exact at rate %d", rate)
	}
	if got := DueBy(rate, int64(time.Second)); got != rate {
		t.Fatalf("accumulator schedule: %d due in 1s, want %d", got, rate)
	}
	if legacy < rate+400 {
		t.Fatalf("legacy drift smaller than expected: %d", legacy)
	}
}

// TestPacerMatchesLegacyOnDivisorRates: for rates dividing 10⁹ the
// accumulator schedule reproduces the legacy interval schedule tick for
// tick, so existing divisor-rate scenarios are unchanged.
func TestPacerMatchesLegacyOnDivisorRates(t *testing.T) {
	for _, rate := range []int64{100, 200, 500, 1000} {
		p := NewPacer(rate)
		interval := int64(time.Second) / rate
		for i := int64(0); i < 3*rate; i++ {
			want := (i + 1) * interval
			if got := p.NextAtNs(); got != want {
				t.Fatalf("rate %d, command %d: due %d, legacy %d", rate, i, got, want)
			}
			p.Take()
		}
	}
}

func TestDueByEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		rate, t, want int64
	}{
		{100, 0, 0},
		{100, 9_999_999, 0},
		{100, 10_000_000, 1},
		{1, 999_999_999, 0},
		{1, 1_000_000_000, 1},
		{2_000_000_000, 0, 1}, // two commands per ns: index 0 due at t=0
		{2_000_000_000, 1, 3}, // ⌊(m)·1e9/2e9⌋ ≤ 1 ⟺ m ≤ 3
		{100, 3 * 1_000_000_000, 300},
		{0, 1_000_000_000, 0},
		{100, -5, 0},
	} {
		if got := DueBy(tc.rate, tc.t); got != tc.want {
			t.Errorf("DueBy(%d, %d) = %d, want %d", tc.rate, tc.t, got, tc.want)
		}
	}
}

// TestEngineOpenLoopDeterministic: two engines with the same config
// produce identical IDs and payloads.
func TestEngineOpenLoopDeterministic(t *testing.T) {
	cfg := Config{Clients: 1_000_000, Rate: 1000, PayloadPad: 16}
	a, b := NewEngine(cfg), NewEngine(cfg)
	for i := 0; i < 500; i++ {
		at := a.NextDueNs()
		idA, plA := a.SubmitNext(at)
		idB, plB := b.SubmitNext(at)
		if idA != idB || !bytes.Equal(plA, plB) {
			t.Fatalf("command %d diverges: %d %q vs %d %q", i, idA, plA, idB, plB)
		}
		if len(plA) < cfg.PayloadPad {
			t.Fatalf("payload shorter than pad: %q", plA)
		}
	}
}

// TestEngineCommitBookkeeping: first commit wins, repeats and foreign
// IDs are ignored, latency is submit→commit.
func TestEngineCommitBookkeeping(t *testing.T) {
	e := NewEngine(Config{Clients: 10, Rate: 100})
	id, _ := e.SubmitNext(5_000)
	if e.Submitted()-e.Committed() != 1 {
		t.Fatalf("outstanding = %d", e.Submitted()-e.Committed())
	}
	c, ok := e.OnCommit(id, 25_000)
	if !ok || c.Latency != 20_000*time.Nanosecond {
		t.Fatalf("commit = %+v ok=%v", c, ok)
	}
	if _, ok := e.OnCommit(id, 30_000); ok {
		t.Fatal("duplicate commit recorded")
	}
	if _, ok := e.OnCommit(id+999, 30_000); ok {
		t.Fatal("unknown command committed")
	}
	if _, ok := e.OnCommit(7, 30_000); ok {
		t.Fatal("sub-IDBase command committed")
	}
	if e.Committed() != 1 || e.Submitted() != 1 {
		t.Fatalf("committed=%d submitted=%d", e.Committed(), e.Submitted())
	}
}

// kvCommand appends "SET key<i%64> value<i>" to b without allocating.
func kvCommand(b []byte, i int64) []byte {
	b = append(b, "SET key"...)
	b = strconv.AppendInt(b, i%64, 10)
	b = append(b, " value"...)
	return strconv.AppendInt(b, i, 10)
}

// TestCommandHook: every payload built by Config.Command is its
// appender's bytes, capped at its own length, and none changes while
// later commands fill and replace the bump block — neither across block
// boundaries nor around a payload longer than a whole block.
func TestCommandHook(t *testing.T) {
	const long = 1500 // this command's payload outgrows any block
	appender := func(b []byte, i int64) []byte {
		if i == long {
			return append(b, bytes.Repeat([]byte{'x'}, genBlockSize+100)...)
		}
		return kvCommand(b, i)
	}
	e := NewEngine(Config{Clients: 64, Rate: 1000, Command: appender})
	const cmds = 10_000 // ≈ 247 KiB of payload: several blocks
	pls := make([][]byte, cmds)
	for i := range pls {
		id, pl := e.SubmitNext(e.NextDueNs())
		if id != IDBase+uint64(i) {
			t.Fatalf("command %d has ID %d", i, id)
		}
		pls[i] = pl
	}
	for i, pl := range pls {
		want := fmt.Sprintf("SET key%d value%d", i%64, i)
		if i == long {
			want = strings.Repeat("x", genBlockSize+100)
		}
		if string(pl) != want || cap(pl) != len(pl) {
			t.Fatalf("command %d = %.40q (len %d, cap %d), want %.40q", i, pl, len(pl), cap(pl), want)
		}
	}
}

// TestGenAllocs: the warm payload-generation path bump-allocates — well
// under one allocation per command (one 64 KiB block per ~700 commands
// at the padded SET's size, plus amortized record growth), for the
// engine's own SETs and for a Config.Command appender.
func TestGenAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{Clients: 1 << 20, Rate: 10_000, PayloadPad: 64},
		{Clients: 1 << 20, Rate: 10_000, Command: kvCommand},
	} {
		e := NewEngine(cfg)
		for i := 0; i < 10_000; i++ { // warm the record slice
			e.SubmitNext(e.NextDueNs())
		}
		const per = 1000
		avg := allocgate.PerRun(t, 20, func() {
			for i := 0; i < per; i++ {
				e.SubmitNext(e.NextDueNs())
			}
		})
		if avg/per > 0.25 {
			t.Fatalf("injection path (Command set: %v) allocates %.3f allocs/command, want < 0.25",
				cfg.Command != nil, avg/per)
		}
	}
}
