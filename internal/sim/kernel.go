// Package sim provides the discrete-event simulation kernel shared by the
// memory controller and CPU models: a time-ordered event queue with a
// monotonic picosecond clock.
//
// The queue is a monomorphic 4-ary min-heap of typed *Event handles (see
// event.go). Callers allocate an Event once, Bind it to a Handler, and
// ScheduleEvent/Reschedule/Cancel it for the lifetime of the simulation:
// steady-state scheduling performs zero heap allocations (the contract is
// pinned by TestScheduleEventAllocFree in kernel_bench_test.go at the queue
// depths BenchmarkKernel profiles). One-shot
// closures can be bound through HandlerFunc; the caller still owns the
// Event.
package sim

import (
	"fmt"

	"mirza/internal/dram"
)

// recentEvents is the size of the executed-event ring kept for watchdog
// diagnostics.
const recentEvents = 16

// Kernel is a discrete-event scheduler. The zero value is ready to use.
type Kernel struct {
	now    dram.Time
	seq    uint64
	events []*Event // 4-ary min-heap ordered by (at, seq)

	// lane holds PokeNow firings pending at the current instant, FIFO by
	// the sequence number each poke allocated. Entries merge with the heap
	// in exact (time, seq) order in Step; the backing array is reused once
	// drained, so steady-state pokes allocate nothing.
	lane     []laneEntry
	laneHead int
	laneLive int

	// recent is a ring of the times of the most recently executed events,
	// reported in watchdog stall diagnostics.
	recent   [recentEvents]dram.Time
	executed uint64
}

// laneEntry is one pending PokeNow firing. The seq snapshot doubles as the
// tombstone check: a poke cancelled (or consumed) before the entry drains
// no longer matches the event's pokeSeq and is skipped.
type laneEntry struct {
	e   *Event
	seq uint64
}

// Now returns the current simulation time.
func (k *Kernel) Now() dram.Time { return k.now }

// Pending returns the number of queued firings: heap events plus pending
// pokes.
func (k *Kernel) Pending() int { return len(k.events) + k.laneLive }

// PokeNow fires e once at the current instant, ordered exactly as if it
// had been rescheduled to now — it allocates a fresh FIFO sequence number,
// so it fires after every event already queued for this instant — but
// WITHOUT disturbing e's scheduled slot: the event stays queued at its
// future time, where a later Reschedule can move it for the cost of a
// short heap fix instead of a full pull-to-now-and-back round trip.
//
// A second poke while one is pending coalesces (no sequence number is
// allocated), mirroring how a reschedule-to-now coalesces against a wake
// already due at the current instant. Poking an event whose scheduled
// time IS the current instant is the caller's responsibility to avoid
// (it would fire twice); the intended pattern guards with
// e.Scheduled() && e.When() <= now first.
func (k *Kernel) PokeNow(e *Event) {
	if e.h == nil {
		panic("sim: PokeNow on an unbound event (call Bind first)")
	}
	if e.poked {
		return
	}
	k.seq++
	e.poked = true
	e.pokeSeq = k.seq
	k.lane = append(k.lane, laneEntry{e, k.seq})
	k.laneLive++
}

// Step executes the earliest event, advancing the clock. It returns false
// if no events remain. The fired event is idle (and may be rescheduled,
// including from inside its own Fire) by the time Fire runs; a poked
// event keeps its scheduled slot.
func (k *Kernel) Step() bool {
	for k.laneHead < len(k.lane) {
		le := k.lane[k.laneHead]
		if !le.e.poked || le.e.pokeSeq != le.seq {
			// Tombstone: the poke was cancelled before draining.
			k.laneDrop()
			continue
		}
		if len(k.events) > 0 && (k.events[0].at < k.now ||
			(k.events[0].at == k.now && k.events[0].seq < le.seq)) {
			break // an older same-instant heap event fires first
		}
		k.laneDrop()
		k.laneLive--
		le.e.poked = false
		k.recent[k.executed%recentEvents] = k.now
		k.executed++
		le.e.h.Fire(k.now)
		return true
	}
	if len(k.events) == 0 {
		return false
	}
	e := k.popRoot()
	k.now = e.at
	k.recent[k.executed%recentEvents] = e.at
	k.executed++
	e.h.Fire(e.at)
	return true
}

// laneDrop consumes the head lane entry, recycling the backing array once
// the lane drains.
func (k *Kernel) laneDrop() {
	k.laneHead++
	if k.laneHead == len(k.lane) {
		k.lane = k.lane[:0]
		k.laneHead = 0
	}
}

// Executed returns the number of events the kernel has run.
func (k *Kernel) Executed() uint64 { return k.executed }

// RecentTimes returns the execution times of up to the last 16 events,
// oldest first (watchdog diagnostics).
func (k *Kernel) RecentTimes() []dram.Time {
	n := k.executed
	if n > recentEvents {
		n = recentEvents
	}
	out := make([]dram.Time, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, k.recent[(k.executed-n+i)%recentEvents])
	}
	return out
}

// NextTimes returns the times of up to the n earliest pending events,
// soonest first, without disturbing the queue (watchdog diagnostics). It
// walks the queue through an auxiliary heap of candidate indices — the
// root, then the children of each visited node — so the cost is
// O(n log n) rather than a copy of the whole queue, which matters when a
// watchdog fires against a simulation with a large event backlog.
func (k *Kernel) NextTimes(n int) []dram.Time {
	if n > len(k.events) {
		n = len(k.events)
	}
	out := make([]dram.Time, 0, n)
	if n == 0 {
		return out
	}
	// cand is a small binary min-heap of event-queue indices ordered by
	// their event's (time, seq) key; it never holds more than n+3 entries
	// (each pop of the 4-ary queue exposes at most four children).
	cand := make([]int, 0, n+4)
	candLess := func(i, j int) bool { return eventBefore(k.events[cand[i]], k.events[cand[j]]) }
	candPush := func(v int) {
		cand = append(cand, v)
		for i := len(cand) - 1; i > 0; {
			p := (i - 1) / 2
			if !candLess(i, p) {
				break
			}
			cand[i], cand[p] = cand[p], cand[i]
			i = p
		}
	}
	candPop := func() int {
		v := cand[0]
		last := len(cand) - 1
		cand[0] = cand[last]
		cand = cand[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(cand) {
				break
			}
			if c+1 < len(cand) && candLess(c+1, c) {
				c++
			}
			if !candLess(c, i) {
				break
			}
			cand[i], cand[c] = cand[c], cand[i]
			i = c
		}
		return v
	}
	candPush(0)
	for len(out) < n {
		i := candPop()
		out = append(out, k.events[i].at)
		for c := 4*i + 1; c <= 4*i+4 && c < len(k.events); c++ {
			candPush(c)
		}
	}
	return out
}

// RunUntil executes events until the clock would pass deadline or the queue
// empties, leaving later events queued. The clock is left at
// min(deadline, last-event time).
func (k *Kernel) RunUntil(deadline dram.Time) {
	for (k.laneLive > 0 && k.now <= deadline) ||
		(len(k.events) > 0 && k.events[0].at <= deadline) {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// Drain runs all remaining events. Intended for test teardown; simulations
// with self-rescheduling actors should use RunUntil.
func (k *Kernel) Drain(maxEvents int) error {
	for i := 0; i < maxEvents; i++ {
		if !k.Step() {
			return nil
		}
	}
	return fmt.Errorf("sim: drain exceeded %d events", maxEvents)
}
