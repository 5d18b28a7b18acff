package sim

import (
	"fmt"
	"testing"

	"lumiere/internal/types"
)

type delivery struct {
	from, to types.NodeID
	at       types.Time
	m        any
}

func recordSink(s *Scheduler, out *[]delivery) {
	s.SetSink(func(from, to types.NodeID, m any) {
		*out = append(*out, delivery{from: from, to: to, at: s.Now(), m: m})
	})
}

// TestMulticastCollapsesUniformBroadcast is the event-count gate from the
// issue: an n-recipient broadcast whose deliveries share one clamped time
// must cost O(1) heap insertions, not O(n), while Events still advances
// by n.
func TestMulticastCollapsesUniformBroadcast(t *testing.T) {
	const n = 4096
	s := New(1)
	var got []delivery
	recordSink(s, &got)

	base := s.Scheduled()
	mc := s.Multicast(7, "m")
	for i := 0; i < n; i++ {
		mc.Add(types.NodeID(i), 100)
	}
	mc.Commit()
	if ins := s.Scheduled() - base; ins != 1 {
		t.Fatalf("uniform %d-recipient broadcast scheduled %d heap events, want 1", n, ins)
	}
	s.RunUntil(100)
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	if s.Events() != uint64(n) {
		t.Fatalf("Events() = %d, want %d (one per expanded delivery)", s.Events(), n)
	}
	for i, d := range got {
		if d.to != types.NodeID(i) || d.from != 7 || d.at != 100 || d.m != "m" {
			t.Fatalf("delivery %d = %+v", i, d)
		}
	}
}

// TestMulticastMatchesSendAt drives the same randomized delivery pattern
// through per-recipient SendAt and through a Multicast and requires the
// observed delivery sequences to be identical, on both the grouped
// (≤ mcMaxTracked distinct times) and the sorted (overflow) Commit path.
func TestMulticastMatchesSendAt(t *testing.T) {
	for _, distinct := range []int{1, 2, mcMaxTracked, mcMaxTracked + 1, 200} {
		t.Run(fmt.Sprintf("distinct=%d", distinct), func(t *testing.T) {
			const n = 300
			// Deterministic pattern with repeats, dups and interleaved times.
			pattern := make([]delivery, 0, n+10)
			for i := 0; i < n; i++ {
				at := types.Time(50 + (i*7)%distinct)
				pattern = append(pattern, delivery{to: types.NodeID(i), at: at})
				if i%37 == 0 { // duplicated transmission
					pattern = append(pattern, delivery{to: types.NodeID(i), at: at + 1})
				}
			}

			run := func(multi bool) []delivery {
				s := New(1)
				var got []delivery
				recordSink(s, &got)
				// Surrounding traffic: events before and after the broadcast's
				// seq block must keep their relative order.
				s.SendAt(49, 1, 2, "pre")
				if multi {
					mc := s.Multicast(9, "b")
					for _, p := range pattern {
						mc.Add(p.to, p.at)
					}
					mc.Commit()
				} else {
					for _, p := range pattern {
						s.SendAt(p.at, 9, p.to, "b")
					}
				}
				s.SendAt(51, 3, 4, "mid")
				s.RunUntil(10_000)
				return got
			}

			plain, multi := run(false), run(true)
			if len(plain) != len(multi) {
				t.Fatalf("len: plain %d vs multi %d", len(plain), len(multi))
			}
			for i := range plain {
				if plain[i] != multi[i] {
					t.Fatalf("delivery %d: plain %+v vs multi %+v", i, plain[i], multi[i])
				}
			}
		})
	}
}

// TestMulticastNestedBuilders exercises the builder pool: a sink handler
// reached mid-expansion starts its own multicast (the network does this
// when a delivery triggers a broadcast reply).
func TestMulticastNestedBuilders(t *testing.T) {
	s := New(1)
	var got []delivery
	s.SetSink(func(from, to types.NodeID, m any) {
		got = append(got, delivery{from: from, to: to, at: s.Now(), m: m})
		if m == "ping" && to == 0 {
			reply := s.Multicast(to, "pong")
			for i := 0; i < 3; i++ {
				reply.Add(types.NodeID(i), s.Now().Add(10))
			}
			reply.Commit()
		}
	})
	mc := s.Multicast(5, "ping")
	for i := 0; i < 3; i++ {
		mc.Add(types.NodeID(i), 100)
	}
	mc.Commit()
	s.RunUntil(1000)
	if len(got) != 6 {
		t.Fatalf("deliveries = %d, want 6: %+v", len(got), got)
	}
	for i, d := range got[3:] {
		if d.m != "pong" || d.at != 110 || d.to != types.NodeID(i) {
			t.Fatalf("reply %d = %+v", i, d)
		}
	}
}

// TestMulticastEmptyCommit checks a builder with no recipients is a no-op
// and the pool recycles cleanly.
func TestMulticastEmptyCommit(t *testing.T) {
	s := New(1)
	var got []delivery
	recordSink(s, &got)
	base := s.Scheduled()
	s.Multicast(0, "x").Commit()
	if s.Scheduled() != base || s.Pending() != 0 {
		t.Fatalf("empty multicast scheduled something")
	}
	// Pool slot is reusable afterwards.
	mc := s.Multicast(0, "y")
	mc.Add(1, 5)
	mc.Commit()
	s.RunUntil(10)
	if len(got) != 1 || got[0].m != "y" {
		t.Fatalf("got = %+v", got)
	}
}

// TestMulticastClear checks pending multicast events are dropped by
// Clear and the recycled slot delivers a later multicast normally.
func TestMulticastClear(t *testing.T) {
	s := New(1)
	var got []delivery
	recordSink(s, &got)
	mc := s.Multicast(1, "stale")
	for i := 0; i < 50; i++ {
		mc.Add(types.NodeID(i), 100)
	}
	mc.Commit()
	s.Clear()
	if s.Pending() != 0 || s.Events() != 0 {
		t.Fatalf("Clear left pending=%d, fired=%d", s.Pending(), s.Events())
	}
	mc = s.Multicast(2, "fresh")
	mc.Add(3, 10)
	mc.Commit()
	s.RunUntil(1000)
	if len(got) != 1 || got[0].m != "fresh" {
		t.Fatalf("post-Clear deliveries = %+v", got)
	}
}

// TestMulticastRunsMatchPerRecipient: recipients stored as runs of
// consecutive IDs expand in exactly the order, and count exactly the
// events, of one SendAt per recipient — for a sender in the middle of
// the range, a dropped recipient, a duplicate at the same time, more
// than mcMaxTracked distinct times (the sorting path) and a multicast
// nested in a delivery. A full broadcast is stored as two runs.
func TestMulticastRunsMatchPerRecipient(t *testing.T) {
	const n = 40
	type send struct {
		to types.NodeID
		at types.Time
	}
	broadcast := func(from types.NodeID, skip func(types.NodeID) bool, at func(types.NodeID) types.Time) []send {
		var out []send
		for to := types.NodeID(0); to < n; to++ {
			if to != from && !skip(to) {
				out = append(out, send{to, at(to)})
			}
		}
		return out
	}
	none := func(types.NodeID) bool { return false }
	fixed := func(types.NodeID) types.Time { return 100 }
	for _, c := range []struct {
		name  string
		sends []send
		runs  int // stored runs of the single event, 0 to skip the check
	}{
		{"sender in the middle", broadcast(17, none, fixed), 2},
		{"dropped recipient", broadcast(17, func(to types.NodeID) bool { return to == 30 }, fixed), 3},
		{"duplicate at the same time", append(broadcast(17, none, fixed), send{39, 100}, send{5, 100}), 4},
		{"repeat of the last recipient", []send{{3, 100}, {4, 100}, {4, 100}, {5, 100}}, 2}, // [3 4] [4 5]
		{"sorting path", broadcast(17, none, func(to types.NodeID) types.Time {
			return types.Time(100 + (int(to)*13)%(mcMaxTracked+5))
		}), 0},
		{"sorting path with duplicates", append(broadcast(0, func(to types.NodeID) bool { return to%7 == 0 }, func(to types.NodeID) types.Time {
			return types.Time(100 + int(to)%(2*mcMaxTracked))
		}), send{1, 101}, send{1, 101}, send{2, 100}), 0},
	} {
		for _, nested := range []bool{false, true} {
			run := func(multi bool) ([]delivery, uint64) {
				s := New(1)
				var got []delivery
				send := func(from types.NodeID, m any, sends []send) {
					if !multi {
						for _, d := range sends {
							s.SendAt(d.at, from, d.to, m)
						}
						return
					}
					mc := s.Multicast(from, m)
					for _, d := range sends {
						mc.Add(d.to, d.at)
					}
					mc.Commit()
				}
				s.SetSink(func(from, to types.NodeID, m any) {
					got = append(got, delivery{from: from, to: to, at: s.Now(), m: m})
					if nested && m == "b" && to == 20 { // a delivery that broadcasts a reply
						send(to, "reply", broadcast(to, none, func(types.NodeID) types.Time { return s.Now() + 3 }))
					}
				})
				s.SendAt(99, 1, 2, "pre")
				send(17, "b", c.sends)
				s.SendAt(100, 3, 4, "mid")
				s.RunUntil(10_000)
				return got, s.Events()
			}
			plain, plainEvents := run(false)
			multi, multiEvents := run(true)
			if len(plain) != len(multi) || plainEvents != multiEvents {
				t.Fatalf("%s nested=%v: %d deliveries, %d events; per-recipient reference %d, %d",
					c.name, nested, len(multi), multiEvents, len(plain), plainEvents)
			}
			for i := range plain {
				if plain[i] != multi[i] {
					t.Fatalf("%s nested=%v: delivery %d = %+v, reference %+v", c.name, nested, i, multi[i], plain[i])
				}
			}
		}
		if c.runs > 0 {
			s := New(1)
			s.SetSink(func(types.NodeID, types.NodeID, any) {})
			mc := s.Multicast(17, "b")
			for _, d := range c.sends {
				mc.Add(d.to, d.at)
			}
			mc.Commit()
			ev := &s.arena[s.heap[0]]
			if s.Pending() != 1 || len(ev.runs) != c.runs || int(ev.nrecip) != len(c.sends) {
				t.Errorf("%s: %d events, %d runs for %d recipients; want 1 event, %d runs",
					c.name, s.Pending(), len(ev.runs), ev.nrecip, c.runs)
			}
		}
	}
}
