package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mirza/internal/dram"
)

// fakeClock advances a fixed step on every reading, simulating wall-clock
// time passing while the simulated clock is stuck.
type fakeClock struct {
	now  time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

func TestWatchdogAbortsLivelock(t *testing.T) {
	var k Kernel
	// A pathological back-off loop: every event re-arms itself at now+1ps,
	// so simulated time crawls while wall-clock time burns.
	var spinEv Event
	spinEv.Bind(HandlerFunc(func(now dram.Time) { k.ScheduleEvent(&spinEv, now+dram.Picosecond) }))
	k.ScheduleEvent(&spinEv, 0)

	clock := &fakeClock{now: time.Unix(0, 0), step: 50 * time.Millisecond}
	w := &Watchdog{Budget: time.Second, CheckEvery: 4, clock: clock.Now}
	err := k.RunUntilCtx(context.Background(), dram.Millisecond, w)
	if err == nil {
		t.Fatal("livelocked run must be aborted")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error type = %T, want *StallError", err)
	}
	if stall.Pending == 0 {
		t.Error("diagnostic should report pending events")
	}
	if len(stall.Recent) == 0 || len(stall.Next) == 0 {
		t.Errorf("diagnostic snapshot incomplete: recent=%v next=%v", stall.Recent, stall.Next)
	}
	if stall.Stalled < time.Second {
		t.Errorf("stalled = %v, want >= budget", stall.Stalled)
	}
	for _, msg := range []string{"watchdog abort", "pending", "recent events"} {
		if !strings.Contains(err.Error(), msg) {
			t.Errorf("error %q lacks %q", err, msg)
		}
	}
}

func TestWatchdogAbortsZeroAdvanceLoop(t *testing.T) {
	var k Kernel
	// Same-time rescheduling: the clock never moves at all.
	var spinEv Event
	spinEv.Bind(HandlerFunc(func(now dram.Time) { k.ScheduleEvent(&spinEv, now) }))
	k.ScheduleEvent(&spinEv, 5*dram.Nanosecond)

	clock := &fakeClock{now: time.Unix(0, 0), step: 100 * time.Millisecond}
	w := &Watchdog{Budget: time.Second, CheckEvery: 8, clock: clock.Now}
	if err := k.RunUntilCtx(context.Background(), dram.Microsecond, w); err == nil {
		t.Fatal("zero-advance loop must be aborted")
	}
	if k.Now() != 5*dram.Nanosecond {
		t.Errorf("clock = %v, want stuck at 5ns", k.Now())
	}
}

func TestWatchdogPassesHealthyRun(t *testing.T) {
	var k Kernel
	count := 0
	var tickEv Event
	tickEv.Bind(HandlerFunc(func(now dram.Time) {
		count++
		k.ScheduleEvent(&tickEv, now+10*dram.Nanosecond)
	}))
	k.ScheduleEvent(&tickEv, 0)

	// Wall clock jumps far past the budget between checks, but simulated
	// time advances healthily, so progress resets the allowance.
	clock := &fakeClock{now: time.Unix(0, 0), step: 10 * time.Second}
	w := &Watchdog{Budget: time.Second, CheckEvery: 2, clock: clock.Now}
	if err := k.RunUntilCtx(context.Background(), dram.Microsecond, w); err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
	if k.Now() != dram.Microsecond {
		t.Errorf("clock = %v, want deadline", k.Now())
	}
	if count != 101 {
		t.Errorf("events = %d, want 101", count)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	var k Kernel
	fired := false
	scheduleFunc(&k, 10, func() { fired = true })
	if err := k.RunUntilCtx(context.Background(), 100, nil); err != nil {
		t.Fatal(err)
	}
	if !fired || k.Now() != 100 {
		t.Errorf("nil watchdog must behave like RunUntil (fired=%v now=%v)", fired, k.Now())
	}
	var k2 Kernel
	scheduleFunc(&k2, 10, func() {})
	if err := k2.RunUntilCtx(context.Background(), 100, &Watchdog{}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelDiagnosticAccessors(t *testing.T) {
	var k Kernel
	if got := k.RecentTimes(); len(got) != 0 {
		t.Errorf("fresh kernel recent = %v", got)
	}
	if got := k.NextTimes(4); len(got) != 0 {
		t.Errorf("fresh kernel next = %v", got)
	}
	for i := 1; i <= 20; i++ {
		scheduleFunc(&k, dram.Time(i), func() {})
	}
	if got := k.NextTimes(3); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("next = %v, want [1 2 3]", got)
	}
	if k.Pending() != 20 {
		t.Errorf("NextTimes must not consume events: pending = %d", k.Pending())
	}
	for k.Step() {
	}
	if k.Executed() != 20 {
		t.Errorf("executed = %d", k.Executed())
	}
	recent := k.RecentTimes()
	if len(recent) != 16 || recent[0] != 5 || recent[15] != 20 {
		t.Errorf("recent = %v, want times 5..20", recent)
	}
}
