package replay

import (
	"math"
	"math/bits"

	"mirza/internal/dram"
	"mirza/internal/trace"
)

// The feed generates each core's ops ahead of Run on a producer goroutine
// (DESIGN.md §22). Each core owns chunksPerCore chunks. Run reads the
// current one; the producer refills the ones Run hands back, in the order
// it hands them back, so every generator is called in the same order as an
// inline loop would call it, and only ever from one goroutine at a time.
// The producer is the slower half, and a ring this deep keeps it from
// waiting on Run to hand chunks back.
const (
	chunkOps      = 512
	chunksPerCore = 4
)

// feedOp is one generated op, resolved to what Run needs: its merge key
// and the virtual line it touches.
//
// A merge key packs the core's clock at the op above the core's index,
// at<<coreBits | core, with coreBits just wide enough for the largest
// index. The smallest key is then the earliest core, ties to the lowest
// index, so Run picks the next core with a branch-free min (DESIGN.md
// §22). A clock past the horizon, 2^63-1 >> coreBits ps, saturates at it;
// Run never replays past the horizon, so a saturated core never issues and
// a key never wraps.
type feedOp struct {
	key  uint64
	line uint64
}

// maxCores bounds the core count: it keeps the horizon at 2^53 ps, about
// 2.5 hours of replayed time, or later.
const maxCores = 1 << 10

type chunk struct {
	core int
	ops  []feedOp // chunkOps long
}

// cursor is Run's read position in one core's current chunk.
type cursor struct {
	ch  *chunk
	pos int
}

type feed struct {
	// Producer state: touched only by fill, which runs in NewRunner and
	// then on the producer goroutine between start and stop.
	gens     []trace.Generator
	op       []trace.Op // per core: the one Op its Next always fills, holding the previous op
	instr    []float64  // per core: cumulative instructions
	perCore  float64    // per-core instructions per second
	coreBits uint       // the width of a merge key's core field
	horizon  dram.Time  // the latest clock a merge key holds

	// Consumer state: touched only on Run's goroutine.
	cur []cursor

	full    []chan *chunk // per core: filled chunks in stream order
	free    chan *chunk   // chunks to refill, then nil to stop the producer
	done    chan struct{} // the producer has exited
	fault   any           // a generator's panic value, set before done
	produce func()        // f.run, bound once: `go f.run()` allocates per call
}

// newFeed fills every core's first chunk inline and queues the rest for
// the producer.
func newFeed(gens []trace.Generator, ips float64) *feed {
	n := len(gens)
	coreBits := uint(bits.Len(uint(n - 1)))
	f := &feed{
		gens:     gens,
		op:       make([]trace.Op, n),
		instr:    make([]float64, n),
		perCore:  ips / float64(n),
		coreBits: coreBits,
		horizon:  math.MaxInt64 >> coreBits,
		cur:      make([]cursor, n),
		full:     make([]chan *chunk, n),
		free:     make(chan *chunk, n*chunksPerCore+1), // every chunk plus the stop marker
		done:     make(chan struct{}, 1),
	}
	f.produce = f.run
	ops := make([]feedOp, n*chunksPerCore*chunkOps)
	for c := range gens {
		f.full[c] = make(chan *chunk, chunksPerCore)
		for k := 0; k < chunksPerCore; k++ {
			ch := &chunk{core: c, ops: ops[:chunkOps:chunkOps]}
			ops = ops[chunkOps:]
			if k == 0 {
				f.fill(ch)
				f.cur[c].ch = ch
			} else {
				f.free <- ch
			}
		}
	}
	return f
}

// fill draws the next chunkOps ops of ch's core. A clock past the horizon
// saturates at it, and one below zero, which only negative gaps can give,
// counts as zero.
func (f *feed) fill(ch *chunk) {
	c := ch.core
	g, op, instr := f.gens[c], &f.op[c], f.instr[c]
	horizon := float64(f.horizon)
	for i := range ch.ops {
		g.Next(op)
		instr += float64(op.Gap + 1)
		at := f.horizon
		if t := instr / f.perCore * 1e12; t < horizon {
			at = max(dram.Time(t), 0)
		}
		ch.ops[i] = feedOp{key: uint64(at)<<f.coreBits | uint64(c), line: op.Line}
	}
	f.instr[c] = instr
}

// head returns core c's current op.
func (f *feed) head(c int) feedOp {
	cur := &f.cur[c]
	return cur.ch.ops[cur.pos]
}

// next advances core c to its next op and returns it.
func (f *feed) next(c int) feedOp {
	cur := &f.cur[c]
	if cur.pos++; cur.pos == chunkOps {
		f.swap(cur)
	}
	return cur.ch.ops[cur.pos]
}

// swap hands cur's spent chunk back for refilling and takes the core's
// next one, re-panicking with the generator's panic value if the producer
// died before filling it.
func (f *feed) swap(cur *cursor) {
	c := cur.ch.core
	f.free <- cur.ch
	ch := <-f.full[c]
	if ch == nil {
		panic(f.fault)
	}
	cur.ch, cur.pos = ch, 0
}

// start launches the producer. A feed whose generator panicked stays dead:
// start re-panics with the same value.
func (f *feed) start() {
	if f.fault != nil {
		panic(f.fault)
	}
	go f.produce()
}

// stop is the handshake that ends the producer before Run returns or
// unwinds. The producer fills every chunk handed back before the marker,
// so ops drawn ahead stay queued in full for the next Run.
func (f *feed) stop() {
	f.free <- nil
	<-f.done
}

// run is the producer. Neither of its sends can block: free and done have
// room for everything ever sent, and a core never has more than
// chunksPerCore chunks queued in full.
func (f *feed) run() {
	defer f.exit()
	for ch := <-f.free; ch != nil; ch = <-f.free {
		f.fill(ch)
		f.full[ch.core] <- ch
	}
}

// exit records a generator panic and wakes Run wherever it waits: a nil
// chunk queued after each core's filled ones makes Run re-panic when it
// reaches the end of the ops that were drawn.
func (f *feed) exit() {
	if v := recover(); v != nil {
		f.fault = v
		for _, q := range f.full {
			q <- nil
		}
	}
	f.done <- struct{}{}
}
