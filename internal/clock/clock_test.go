package clock

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"lumiere/internal/sim"
	"lumiere/internal/types"
)

func TestClockAdvances(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	if c.Read() != 0 {
		t.Fatalf("initial = %v", c.Read())
	}
	s.RunUntil(100)
	if c.Read() != 100 {
		t.Fatalf("read = %v", c.Read())
	}
}

func TestClockInitialOffset(t *testing.T) {
	s := sim.New(1)
	s.RunUntil(50)
	c := New(s, 500)
	s.RunUntil(80)
	if c.Read() != 530 {
		t.Fatalf("read = %v, want 530", c.Read())
	}
}

func TestClockPauseUnpause(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunUntil(10)
	c.Pause()
	c.Pause() // idempotent
	s.RunUntil(100)
	if c.Read() != 10 {
		t.Fatalf("paused read = %v", c.Read())
	}
	c.Unpause()
	c.Unpause() // idempotent
	s.RunUntil(130)
	if c.Read() != 40 {
		t.Fatalf("resumed read = %v", c.Read())
	}
}

func TestClockBump(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunUntil(10)
	if !c.BumpTo(50) {
		t.Fatal("bump failed")
	}
	if c.Read() != 50 {
		t.Fatalf("read = %v", c.Read())
	}
	if c.BumpTo(30) {
		t.Fatal("backward bump accepted")
	}
	if c.BumpTo(50) {
		t.Fatal("equal bump accepted")
	}
	s.RunUntil(20)
	if c.Read() != 60 {
		t.Fatalf("read after bump+advance = %v", c.Read())
	}
}

func TestClockBumpWhilePaused(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	c.Pause()
	c.BumpTo(40)
	s.RunUntil(100)
	if c.Read() != 40 || !c.Paused() {
		t.Fatalf("read = %v paused = %v", c.Read(), c.Paused())
	}
	c.Unpause()
	s.RunUntil(110)
	if c.Read() != 50 {
		t.Fatalf("read = %v", c.Read())
	}
}

func TestAlarmFiresOnCrossing(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	var firedAt types.Time = -1
	c.SetAlarm(30, func() { firedAt = c.Read() })
	s.RunUntil(100)
	if firedAt != 30 {
		t.Fatalf("fired at %v", firedAt)
	}
}

func TestAlarmSuspendedByPause(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	firedLC := types.Time(-1)
	firedAt := types.Time(-1)
	c.SetAlarm(30, func() { firedLC, firedAt = c.Read(), s.Now() })
	s.RunUntil(10)
	c.Pause()
	s.RunUntil(200)
	if firedAt != -1 {
		t.Fatal("alarm fired while paused")
	}
	c.Unpause()
	s.RunUntil(250)
	// lc was 10 during the pause (t=10..200), so lc reaches 30 at real
	// time 220.
	if firedLC != 30 || firedAt != 220 {
		t.Fatalf("fired lc=%v at=%v, want lc=30 at=220", firedLC, firedAt)
	}
}

func TestAlarmClearedByBumpPast(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	fired := false
	c.SetAlarm(30, func() { fired = true })
	c.BumpTo(50) // jumps over the target: alarm must NOT fire
	s.RunUntil(200)
	if fired {
		t.Fatal("alarm fired despite bump over target")
	}
}

func TestAlarmPastTargetFiresAsync(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunUntil(50)
	fired := false
	c.SetAlarm(20, func() { fired = true })
	if fired {
		t.Fatal("fired synchronously")
	}
	s.RunUntil(51)
	if !fired {
		t.Fatal("past-target alarm never fired")
	}
}

func TestAlarmReplacedBySet(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	var got []int
	c.SetAlarm(30, func() { got = append(got, 1) })
	c.SetAlarm(40, func() { got = append(got, 2) })
	s.RunUntil(100)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got = %v", got)
	}
}

func TestClearAlarm(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	fired := false
	c.SetAlarm(30, func() { fired = true })
	c.clearAlarm()
	s.RunUntil(100)
	if fired {
		t.Fatal("cleared alarm fired")
	}
}

// TestClockMonotoneRandom is a randomized property test: under arbitrary
// interleavings of advance/pause/unpause/bump, Read never decreases
// (Lemma 5.2's clock clause).
func TestClockMonotoneRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := sim.New(seed)
		c := New(s, 0)
		rng := rand.New(rand.NewSource(seed))
		last := c.Read()
		check := func() {
			if v := c.Read(); v < last {
				t.Fatalf("seed %d: clock regressed %v -> %v", seed, last, v)
			} else {
				last = v
			}
		}
		for i := 0; i < 500; i++ {
			switch rng.Intn(5) {
			case 0:
				s.RunFor(time.Duration(rng.Intn(100)))
			case 1:
				c.Pause()
			case 2:
				c.Unpause()
			case 3:
				c.BumpTo(c.Read() + types.Time(rng.Intn(200)))
			case 4:
				c.BumpTo(c.Read() - types.Time(rng.Intn(200))) // must no-op
			}
			check()
		}
	}
}

// closureOnly is a Runtime without handle timers.
type closureOnly struct{ *sim.Scheduler }

func (r closureOnly) AtTimer() {} // shadows the scheduler's: not TimerRuntime

// TestNewPanicsWithoutHandleTimers: Clock has one alarm path, over
// TimerRuntime; a runtime without it is refused up front, by type name.
func TestNewPanicsWithoutHandleTimers(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "closureOnly") {
			t.Fatalf("New over a closure-only runtime: panic %q, want one naming the type", msg)
		}
	}()
	New(closureOnly{sim.New(1)}, 0)
}
