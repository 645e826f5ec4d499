package sim

import (
	"container/heap"

	"mirza/internal/dram"
)

// This file preserves the pre-redesign scheduler's ordering — a
// container/heap binary heap keyed by (time, sequence) — as a reference
// model: the property test checks that the monomorphic 4-ary heap pops
// events in exactly the order the old implementation did (including
// same-time FIFO ties and interleaved Cancel/Reschedule).

// legacyEvent is one scheduled event, keyed by (at, seq) with id carried
// for order comparison in the property test.
type legacyEvent struct {
	at  dram.Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	id  int
}

type legacyHeap []legacyEvent

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x any)   { *h = append(*h, x.(legacyEvent)) }
func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// legacyKernel is the old scheduler's queue discipline with id-tagged
// events in place of closures (modulo the past-time panic, which the
// reference never triggers).
type legacyKernel struct {
	now    dram.Time
	seq    uint64
	events legacyHeap
}

// scheduleID queues an id-tagged event (property-test reference mirror).
func (k *legacyKernel) scheduleID(at dram.Time, id int) {
	k.seq++
	heap.Push(&k.events, legacyEvent{at: at, seq: k.seq, id: id})
}

// cancelID removes the queued event with the given id, reporting whether
// it was found. O(n) search is fine for a reference model.
func (k *legacyKernel) cancelID(id int) bool {
	for i := range k.events {
		if k.events[i].id == id {
			heap.Remove(&k.events, i)
			return true
		}
	}
	return false
}

// rescheduleID moves id to a new time with a fresh sequence number —
// exactly the semantics of Kernel.Reschedule — scheduling it if absent.
func (k *legacyKernel) rescheduleID(at dram.Time, id int) {
	for i := range k.events {
		if k.events[i].id == id {
			k.seq++
			k.events[i].at = at
			k.events[i].seq = k.seq
			heap.Fix(&k.events, i)
			return
		}
	}
	k.scheduleID(at, id)
}

// popID pops the earliest event, returning its (id, time).
func (k *legacyKernel) popID() (int, dram.Time) {
	e := heap.Pop(&k.events).(legacyEvent)
	k.now = e.at
	return e.id, e.at
}
