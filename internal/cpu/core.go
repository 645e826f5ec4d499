package cpu

import (
	"math"

	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/sim"
	"mirza/internal/trace"
)

// The core model of Table III: every core retires up to width
// instructions per cycle from a robSize-entry reorder buffer, clocked at
// 4 GHz.
const (
	width   = 4   // retire width, instructions per cycle
	robSize = 392 // reorder-buffer entries

	// CycleTime is the core clock period (250 ps at 4 GHz).
	CycleTime = 250 * dram.Picosecond
)

// CoreConfig parameterizes one out-of-order core.
type CoreConfig struct {
	MSHR int // maximum outstanding misses (16), calibrated per workload
}

func (c *CoreConfig) setDefaults() {
	if c.MSHR == 0 {
		c.MSHR = 16
	}
}

// missEntry is one outstanding LLC-miss read. The memory request is
// embedded and its Done callback is the entry's own complete method, bound
// once when the entry is first allocated: a core recycles entries through
// a free list, so steady-state misses allocate nothing.
type missEntry struct {
	c    *Core
	pos  int64
	done bool
	req  mem.Request
}

// complete is the request-completion callback (the former Done closure).
func (e *missEntry) complete(at dram.Time) {
	c := e.c
	e.done = true
	if !c.waiting {
		return
	}
	// The front-end was stalled; its issue clock resumes now.
	if c.outstanding.front().done {
		c.resume(at)
		return
	}
	// MSHR-stalled cores can resume on any completion.
	c.popDone()
	if c.outstanding.len() < c.cfg.MSHR {
		c.resume(at)
	}
}

// missRing is the outstanding-miss window: a fixed-capacity FIFO ring
// sized to the MSHR count at construction. The former slice held the same
// bound on live entries but advanced through its backing array with
// outstanding = outstanding[1:], so every few hundred misses the append
// hit the array's end and reallocated — the last steady-state allocation
// on the fig3 hot path.
type missRing struct {
	buf  []*missEntry
	head int
	n    int
}

func (r *missRing) init(capacity int) { r.buf = make([]*missEntry, capacity) }
func (r *missRing) len() int          { return r.n }
func (r *missRing) front() *missEntry { return r.buf[r.head] }

// push appends e; the caller guarantees len() < cap (the MSHR stall).
func (r *missRing) push(e *missEntry) {
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
}

// popFront removes and returns the oldest entry, clearing its slot.
func (r *missRing) popFront() *missEntry {
	e := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e
}

// writeReq is a pooled posted-write request (writeback traffic). The
// memory controller invokes Done synchronously when it accepts a write, at
// which point the request has left the command queue and is free to reuse.
type writeReq struct {
	c   *Core
	req mem.Request
}

func (w *writeReq) recycle(dram.Time) { w.c.writePool = append(w.c.writePool, w) }

// Core is a trace-driven core with an ROB-occupancy stall model: it issues
// instructions at width per cycle, sends loads that miss the LLC to the
// memory controller, and stalls when the oldest incomplete load falls robSize
// instructions behind the issue point (or when MSHRs are exhausted).
type Core struct {
	id  int
	cfg CoreConfig
	k   *sim.Kernel
	gen trace.Generator

	translate func(core int, vaddr uint64) uint64
	submit    func(r *mem.Request)
	llc       *LLC

	pos   int64     // instructions issued (our retirement proxy)
	posAt dram.Time // simulation time at which pos was reached

	outstanding missRing
	waiting     bool // stalled on ROB head or MSHRs

	// wakeEv is the persistent timed-wake event (replaces the former
	// sleeping flag + one-shot closure): Scheduled() doubles as the
	// "a timed wake is pending" predicate.
	wakeEv sim.Event

	entryPool []*missEntry // recycled outstanding-miss entries
	writePool []*writeReq  // recycled posted-write requests

	haveOp bool
	op     trace.Op
	opPos  int64

	Reads  int64
	Writes int64
}

// NewCore builds a core. translate maps a core-virtual byte address to a
// physical one; submit hands requests to the memory channel; llc may be nil
// to drive the generator's miss stream directly at the controller (the
// calibrated mode used for the paper's workloads, whose Table IV MPKI
// already reflects a shared 16MB LLC).
func NewCore(id int, cfg CoreConfig, k *sim.Kernel, gen trace.Generator,
	translate func(core int, vaddr uint64) uint64, submit func(r *mem.Request), llc *LLC) *Core {
	cfg.setDefaults()
	c := &Core{id: id, cfg: cfg, k: k, gen: gen, translate: translate, submit: submit, llc: llc}
	c.outstanding.init(cfg.MSHR)
	c.wakeEv.Bind((*coreWake)(c))
	return c
}

// coreWake adapts a Core to sim.Handler for its timed-wake event.
type coreWake Core

func (w *coreWake) Fire(dram.Time) { (*Core)(w).run() }

// Start begins execution.
func (c *Core) Start() { c.run() }

// Retired returns the number of instructions issued/retired.
func (c *Core) Retired() int64 { return c.pos }

// IPC returns instructions per cycle over the period from start to now.
func (c *Core) IPC(now dram.Time) float64 {
	if now <= 0 {
		return 0
	}
	cycles := float64(now) / float64(CycleTime)
	return float64(c.pos) / cycles
}

// issueTime returns the front-end time to issue n instructions.
func (c *Core) issueTime(n int64) dram.Time {
	return dram.Time(n) * CycleTime / width
}

func (c *Core) run() {
	now := c.k.Now()
	c.waiting = false
	for {
		c.popDone()
		if !c.haveOp {
			c.gen.Next(&c.op)
			c.opPos = c.pos + c.op.Gap + 1 // the access is an instruction too
			c.haveOp = true
		}

		limit := int64(math.MaxInt64)
		if c.outstanding.len() > 0 {
			limit = c.outstanding.front().pos + robSize
		}
		target := c.opPos
		if limit < target {
			target = limit
		}
		if target > c.pos {
			readyAt := c.posAt + c.issueTime(target-c.pos)
			if readyAt > now {
				// Issuing up to target takes front-end time: advance only
				// the instructions that fit by now (so IPC accounting is
				// exact at any instant) and continue at a timed wake.
				fit := int64(now-c.posAt) * width / int64(CycleTime)
				if fit > 0 {
					c.pos += fit
					c.posAt += c.issueTime(fit)
				}
				if !c.wakeEv.Scheduled() {
					c.k.ScheduleEvent(&c.wakeEv, readyAt)
				}
				return
			}
			c.pos = target
			c.posAt = readyAt
		}
		if c.pos < c.opPos {
			// ROB full: resume when the oldest miss returns.
			c.waiting = true
			return
		}

		// At the memory operation.
		if !c.op.Write && c.outstanding.len() >= c.cfg.MSHR {
			c.waiting = true
			return
		}
		c.issueMemOp(now)
		c.haveOp = false
	}
}

// SyncClock advances the retirement accounting to time now (applying any
// issue progress since the last event) without changing scheduling. Called
// at measurement boundaries, where the clock may sit between core events.
func (c *Core) SyncClock(now dram.Time) {
	if c.waiting || !c.wakeEv.Scheduled() || !c.haveOp || now <= c.posAt {
		return
	}
	limit := int64(math.MaxInt64)
	if c.outstanding.len() > 0 {
		limit = c.outstanding.front().pos + robSize
	}
	target := c.opPos
	if limit < target {
		target = limit
	}
	fit := int64(now-c.posAt) * width / int64(CycleTime)
	if c.pos+fit > target {
		fit = target - c.pos
	}
	if fit > 0 {
		c.pos += fit
		c.posAt += c.issueTime(fit)
	}
}

// resume restarts the stalled front-end: its issue clock continues at the
// completion time of the miss that unblocked it.
func (c *Core) resume(at dram.Time) {
	if c.posAt < at {
		c.posAt = at
	}
	c.run()
}

// newEntry takes a miss entry from the free list (or allocates one on
// first use, binding the completion callback once).
func (c *Core) newEntry() *missEntry {
	if n := len(c.entryPool); n > 0 {
		e := c.entryPool[n-1]
		c.entryPool = c.entryPool[:n-1]
		e.done = false
		return e
	}
	e := &missEntry{c: c}
	e.req.Done = e.complete
	return e
}

// newWrite takes a posted-write request from the free list; its Done
// recycles it as soon as the controller accepts the write.
func (c *Core) newWrite(addr uint64) *mem.Request {
	var w *writeReq
	if n := len(c.writePool); n > 0 {
		w = c.writePool[n-1]
		c.writePool = c.writePool[:n-1]
	} else {
		w = &writeReq{c: c}
		w.req.Done = w.recycle
	}
	w.req.Addr = addr
	w.req.Write = true
	return &w.req
}

func (c *Core) issueMemOp(now dram.Time) {
	phys := c.translate(c.id, c.op.Line*trace.LineBytes)
	write := c.op.Write

	if c.llc != nil {
		res := c.llc.Access(phys, write)
		if res.Writeback {
			c.Writes++
			c.submit(c.newWrite(res.WritebackPhys))
		}
		if res.Hit {
			return // hit latency is hidden by the OoO window
		}
		write = false // fills are reads; the dirty bit lives in the cache
	}

	if write {
		// Posted write (writeback traffic): no ROB occupancy.
		c.Writes++
		c.submit(c.newWrite(phys))
		return
	}

	c.Reads++
	entry := c.newEntry()
	entry.pos = c.pos
	entry.req.Addr = phys
	c.outstanding.push(entry)
	c.submit(&entry.req)
}

func (c *Core) popDone() {
	for c.outstanding.len() > 0 && c.outstanding.front().done {
		// The entry's completion has fired and it has left the window:
		// safe to recycle.
		c.entryPool = append(c.entryPool, c.outstanding.popFront())
	}
}
