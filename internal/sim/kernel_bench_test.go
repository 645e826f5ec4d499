package sim

import (
	"fmt"
	"testing"

	"mirza/internal/dram"
)

// The BenchmarkKernel suite measures the scheduler hot path — pop one
// event, fire it, schedule its successor — at several steady-state queue
// depths. It is a profiling entry point, not a gate: TestScheduleEventAllocFree
// pins the zero-allocation contract at the same depths, and simulator speed
// is judged end to end by the bench/ module's compare against the parent
// commit.

// benchDeltas returns depth deterministic reschedule intervals (an LCG, so
// heap paths vary without math/rand in the timed loop).
func benchDeltas(depth int) []dram.Time {
	deltas := make([]dram.Time, depth)
	x := uint64(88172645463325252)
	for i := range deltas {
		x = x*6364136223846793005 + 1442695040888963407
		deltas[i] = dram.Time(x%977) + 1
	}
	return deltas
}

// benchTick is a self-rescheduling handler: the steady-state pattern of
// every simulated actor (subchannel wakes, core timers, refresh).
type benchTick struct {
	k     *Kernel
	ev    Event
	delta dram.Time
}

func (t *benchTick) Fire(now dram.Time) { t.k.ScheduleEvent(&t.ev, now+t.delta) }

// benchTicks queues depth self-rescheduling ticks on k, the i-th first
// firing at first+i.
func benchTicks(k *Kernel, depth int, first dram.Time) []benchTick {
	deltas := benchDeltas(depth)
	ticks := make([]benchTick, depth)
	for i := range ticks {
		ticks[i].k = k
		ticks[i].delta = deltas[i]
		ticks[i].ev.Bind(&ticks[i])
		k.ScheduleEvent(&ticks[i].ev, first+dram.Time(i))
	}
	return ticks
}

// kernelDepths are the steady-state queue depths the suite measures.
var kernelDepths = []int{16, 256, 4096}

func BenchmarkKernel(b *testing.B) {
	for _, depth := range kernelDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var k Kernel
			benchTicks(&k, depth, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}

// BenchmarkKernelReschedule measures the requestWake pattern: pulling a
// pending timer earlier.
func BenchmarkKernelReschedule(b *testing.B) {
	const depth = 256
	var k Kernel
	ticks := benchTicks(&k, depth, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &ticks[i%depth]
		k.Reschedule(&t.ev, k.Now()+t.delta)
	}
}

// TestScheduleEventAllocFree pins the zero-allocation contract at every
// depth BenchmarkKernel measures: a steady-state pop+fire+reschedule cycle
// over reusable events, and a Reschedule of a pending event, perform no
// heap allocations at all.
func TestScheduleEventAllocFree(t *testing.T) {
	for _, depth := range kernelDepths {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			var k Kernel
			ticks := benchTicks(&k, depth, 0)
			if allocs := testing.AllocsPerRun(10000, func() { k.Step() }); allocs != 0 {
				t.Fatalf("steady-state Step+ScheduleEvent allocated %v times per event, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(10000, func() {
				k.Reschedule(&ticks[0].ev, k.Now()+ticks[0].delta)
			}); allocs != 0 {
				t.Fatalf("Reschedule allocated %v times per call, want 0", allocs)
			}
		})
	}
}
