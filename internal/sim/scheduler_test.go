package sim

import (
	"fmt"
	"testing"
	"time"

	"lumiere/internal/allocgate"
	"lumiere/internal/types"
)

func TestSchedulerOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Nanosecond, func() { got = append(got, 3) })
	s.After(10*time.Nanosecond, func() { got = append(got, 1) })
	s.After(20*time.Nanosecond, func() { got = append(got, 2) })
	s.RunUntil(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 100 {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(50, func() { got = append(got, i) })
	}
	s.RunUntil(50)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := New(1)
	fired := false
	cancel := s.After(10, func() { fired = true })
	cancel()
	cancel() // idempotent
	s.RunUntil(100)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := New(1)
	var times []types.Time
	s.At(10, func() {
		times = append(times, s.Now())
		s.After(5, func() { times = append(times, s.Now()) })
		s.After(0, func() { times = append(times, s.Now()) })
	})
	s.RunUntil(100)
	if len(times) != 3 || times[0] != 10 || times[1] != 10 || times[2] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulerPastEventClamped(t *testing.T) {
	s := New(1)
	s.RunUntil(100)
	fired := types.Time(-1)
	s.At(50, func() { fired = s.Now() }) // in the past
	s.RunUntil(200)
	if fired != 100 {
		t.Fatalf("past event fired at %v, want 100 (clamped)", fired)
	}
}

func TestSchedulerStepAndPending(t *testing.T) {
	s := New(1)
	s.After(5, func() {})
	s.After(6, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	if !s.Step() || !s.Step() || s.Step() {
		t.Fatal("Step sequence wrong")
	}
	if s.Events() != 2 {
		t.Fatalf("events = %d", s.Events())
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var out []int64
		var rec func(depth int)
		rec = func(depth int) {
			out = append(out, int64(s.Now()), s.Rand().Int63n(1000))
			if depth < 50 {
				s.After(time.Duration(s.Rand().Int63n(100)+1), func() { rec(depth + 1) })
			}
		}
		s.After(1, func() { rec(0) })
		s.RunUntil(types.Time(1e9))
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical executions")
	}
}

// TestSchedulerCancelShrinksPending is the regression test for the
// cancel leak: cancelled events must leave the heap immediately, not
// linger until popped.
func TestSchedulerCancelShrinksPending(t *testing.T) {
	s := New(1)
	cancels := make([]func(), 100)
	for i := range cancels {
		cancels[i] = s.After(time.Duration(i+1), func() { t.Fatal("cancelled event fired") })
	}
	if s.Pending() != 100 {
		t.Fatalf("pending = %d, want 100", s.Pending())
	}
	for i, cancel := range cancels {
		cancel()
		if want := 100 - i - 1; s.Pending() != want {
			t.Fatalf("after %d cancels pending = %d, want %d", i+1, s.Pending(), want)
		}
	}
	s.RunUntil(1000)
	if s.Events() != 0 {
		t.Fatalf("fired %d cancelled events", s.Events())
	}
}

func TestSchedulerTimerCancelStale(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.AtTimer(10, func() { fired++ })
	s.RunUntil(20)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// The slot has been recycled; a stale handle must not cancel its
	// new occupant.
	s.Cancel(tm)
	s.AtTimer(30, func() { fired++ })
	s.Cancel(tm) // still stale
	s.RunUntil(40)
	if fired != 2 {
		t.Fatalf("stale cancel removed a live event: fired = %d", fired)
	}
	s.Cancel(Timer{}) // zero handle is inert
}

func TestSchedulerCancelPreservesOrder(t *testing.T) {
	s := New(1)
	var got []int
	var cancels []func()
	for i := 0; i < 20; i++ {
		i := i
		cancels = append(cancels, s.At(types.Time(i%5), func() { got = append(got, i) }))
	}
	for i := 1; i < 20; i += 2 {
		cancels[i]()
	}
	s.RunUntil(100)
	// Events fire by (at, seq): at = i%5, FIFO within an instant.
	sortedWant := []int{0, 10, 6, 16, 2, 12, 8, 18, 4, 14}
	if len(got) != len(sortedWant) {
		t.Fatalf("got %v", got)
	}
	for i, v := range sortedWant {
		if got[i] != v {
			t.Fatalf("order after cancels = %v, want %v", got, sortedWant)
		}
	}
}

type sinkRecorder struct {
	got []struct {
		from, to types.NodeID
		at       types.Time
	}
}

func TestSchedulerPayloadSink(t *testing.T) {
	s := New(1)
	var rec sinkRecorder
	var msgs []string
	s.SetSink(func(from, to types.NodeID, m any) {
		rec.got = append(rec.got, struct {
			from, to types.NodeID
			at       types.Time
		}{from, to, s.Now()})
		msgs = append(msgs, m.(string))
	})
	s.SendAt(20, 1, 2, "b")
	s.SendAt(10, 0, 1, "a")
	s.RunUntil(100)
	if len(rec.got) != 2 || msgs[0] != "a" || msgs[1] != "b" {
		t.Fatalf("sink got %v %v", rec.got, msgs)
	}
	if rec.got[0].at != 10 || rec.got[0].from != 0 || rec.got[0].to != 1 {
		t.Fatalf("first delivery = %+v", rec.got[0])
	}
	if s.Events() != 2 {
		t.Fatalf("events = %d", s.Events())
	}
}

func TestSchedulerDoubleSinkPanics(t *testing.T) {
	s := New(1)
	s.SetSink(func(types.NodeID, types.NodeID, any) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for second SetSink")
		}
	}()
	s.SetSink(func(types.NodeID, types.NodeID, any) {})
}

func TestSchedulerSendWithoutSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for SendAt without sink")
		}
	}()
	New(1).SendAt(1, 0, 1, "x")
}

// TestSchedulerAllocsSteadyState pins the zero-allocation hot paths: a
// schedule/fire cycle through AtTimer and through SendAt must not
// allocate once the arena is warm. The closure-based At API is allowed
// exactly one allocation (the returned cancel closure).
func TestSchedulerAllocsSteadyState(t *testing.T) {
	s := New(1)
	fn := func() {}
	s.SetSink(func(types.NodeID, types.NodeID, any) {})
	var m any = "payload"
	for i := 0; i < 100; i++ { // warm the arena and heap
		s.AtTimer(s.Now()+1, fn)
		s.SendAt(s.Now()+1, 0, 1, m)
		s.Step()
		s.Step()
	}
	if avg := allocgate.PerRun(t, 500, func() {
		s.AtTimer(s.Now()+1, fn)
		s.Step()
	}); avg != 0 {
		t.Errorf("AtTimer/Step cycle allocates %.2f per run, want 0", avg)
	}
	if avg := allocgate.PerRun(t, 500, func() {
		s.SendAt(s.Now()+1, 0, 1, m)
		s.Step()
	}); avg != 0 {
		t.Errorf("SendAt/Step cycle allocates %.2f per run, want 0", avg)
	}
	if avg := allocgate.PerRun(t, 500, func() {
		cancel := s.At(s.Now()+1, fn)
		_ = cancel
		s.Step()
	}); avg > 1 {
		t.Errorf("At/Step cycle allocates %.2f per run, want <= 1 (cancel closure)", avg)
	}
}

func TestSchedulerNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil fn")
		}
	}()
	New(1).After(1, nil)
}

// TestSchedulerClearKeepsSink verifies Clear drops pending payload
// events and timers without firing them, keeps the sink registration
// (one network per scheduler for its lifetime), and leaves a cleared
// Timer handle stale: cancelling it does not touch the event that
// reuses its slot.
func TestSchedulerClearKeepsSink(t *testing.T) {
	s := New(1)
	var got []string
	s.SetSink(func(from, to types.NodeID, m any) {
		got = append(got, fmt.Sprintf("%v->%v:%v@%v", from, to, m, s.Now()))
	})
	s.SendAt(types.Time(0).Add(time.Second), 1, 2, "stale")
	stale := s.AtTimer(types.Time(0).Add(time.Second), func() { got = append(got, "stale timer") })
	s.Clear()
	s.SendAt(types.Time(0).Add(time.Millisecond), 3, 4, "live")
	s.AtTimer(types.Time(0).Add(2*time.Millisecond), func() { got = append(got, "live timer") })
	s.Cancel(stale)
	s.RunFor(2 * time.Second)
	if fmt.Sprint(got) != "[p3->p4:live@1ms live timer]" {
		t.Fatalf("sink saw %v", got)
	}
}
