package sim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mirza/internal/dram"
)

// Watchdog detects a stalled or livelocked simulation: event processing
// that burns wall-clock time without meaningfully advancing the simulated
// clock. The classic failure mode it guards against is a pathological
// zero-delay (or picosecond-delay) event loop — e.g. an ALERT back-off
// cycle that re-arms itself at now+1ps forever — which would otherwise
// hang a run silently.
//
// A Watchdog is attached to a single RunUntilCtx call; reuse across
// calls is fine (it keeps no state between calls). The zero value with a
// positive Budget is ready to use.
type Watchdog struct {
	// Budget is the wall-clock allowance between observations of forward
	// progress. A non-positive Budget disables the watchdog entirely.
	Budget time.Duration

	// MinAdvance is the simulated-time advance that counts as progress.
	// Defaults to 1ns: a loop re-arming events picoseconds apart is still
	// a livelock even though the clock technically moves.
	MinAdvance dram.Time

	// CheckEvery is the number of executed events between wall-clock
	// samples (default 4096). Sampling keeps time.Now off the per-event
	// hot path.
	CheckEvery int

	// clock overrides time.Now in tests.
	clock func() time.Time

	// samples counts progress checks across all watched runs. It is a
	// pure function of the executed-event sequence (one sample per
	// CheckEvery events), so it is deterministic and safe to export in
	// run manifests.
	samples uint64
}

// Samples returns the number of progress checks performed so far.
func (w *Watchdog) Samples() uint64 {
	if w == nil {
		return 0
	}
	return w.samples
}

func (w *Watchdog) now() time.Time {
	if w.clock != nil {
		return w.clock()
	}
	return time.Now()
}

// StallError is returned when the watchdog aborts a run. It carries a
// diagnostic snapshot of the kernel: the stuck simulation time, the
// pending-event queue depth and earliest deadlines, and the times of the
// most recently executed events.
type StallError struct {
	Now      dram.Time     // simulated time at abort
	Stalled  time.Duration // wall-clock elapsed without progress
	Executed uint64        // total events the kernel has run
	Pending  int           // events still queued
	Next     []dram.Time   // earliest pending event times, soonest first
	Recent   []dram.Time   // most recently executed event times, oldest first
}

// Error implements error.
func (e *StallError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sim: watchdog abort: no event-time advance for %v at t=%v (%d events executed, %d pending)",
		e.Stalled.Round(time.Millisecond), e.Now, e.Executed, e.Pending)
	if len(e.Next) > 0 {
		fmt.Fprintf(&sb, "; next events at %v", e.Next)
	}
	if len(e.Recent) > 0 {
		fmt.Fprintf(&sb, "; recent events at %v", e.Recent)
	}
	return sb.String()
}

// RunUntilCtx is RunUntil under watchdog supervision and cooperative
// cancellation. It executes events until the clock would pass deadline or
// the queue empties, but aborts with a *StallError if the simulated clock
// stops advancing (by at least w.MinAdvance) for longer than w.Budget of
// wall-clock time. A nil watchdog or a non-positive budget disables that
// check. On abort the kernel is left mid-run (clock at the stall point,
// pending events still queued) so the caller can inspect it; it must not
// be resumed.
//
// ctx is sampled between event batches (every CheckEvery events, the same
// cadence as watchdog progress checks), so a cancelled or deadline-blown
// context stops the simulation mid-run instead of only at run boundaries.
// The kernel is left resumable at the point of cancellation (clock and
// queue intact); the returned error is ctx.Err().
//
// With a Background context and no armed watchdog this is plain RunUntil:
// the per-event hot path never touches the context.
func (k *Kernel) RunUntilCtx(ctx context.Context, deadline dram.Time, w *Watchdog) error {
	watched := w != nil && w.Budget > 0
	done := ctx.Done()
	if !watched && done == nil {
		k.RunUntil(deadline)
		return nil
	}
	checkEvery := 4096
	var minAdvance dram.Time
	if watched {
		if w.CheckEvery > 0 {
			checkEvery = w.CheckEvery
		}
		minAdvance = w.MinAdvance
		if minAdvance <= 0 {
			minAdvance = dram.Nanosecond
		}
	}

	var lastProgress time.Time
	if watched {
		lastProgress = w.now()
	}
	lastNow := k.now
	sinceCheck := 0
	for (k.laneLive > 0 && k.now <= deadline) ||
		(len(k.events) > 0 && k.events[0].at <= deadline) {
		k.Step()
		sinceCheck++
		if sinceCheck < checkEvery {
			continue
		}
		sinceCheck = 0
		if done != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !watched {
			continue
		}
		w.samples++
		if k.now-lastNow >= minAdvance {
			lastNow = k.now
			lastProgress = w.now()
			continue
		}
		if elapsed := w.now().Sub(lastProgress); elapsed > w.Budget {
			return &StallError{
				Now:      k.now,
				Stalled:  elapsed,
				Executed: k.executed,
				Pending:  k.Pending(),
				Next:     k.NextTimes(8),
				Recent:   k.RecentTimes(),
			}
		}
	}
	if done != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if k.now < deadline {
		k.now = deadline
	}
	return nil
}
