package track

import (
	"math"
	"runtime"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/stats"
)

// chunks counts the chunks the store has allocated.
func (rc *RowCounters) chunks() (n int) {
	for _, cs := range rc.banks {
		for _, c := range cs {
			if c != nil {
				n++
			}
		}
	}
	return n
}

// TestRowCountersRefreshReportsClearedRows checks that a REF clears its
// rows in every bank, reports each nonzero counter it clears once with
// its old value, and leaves other rows and absent chunks alone.
func TestRowCountersRefreshReportsClearedRows(t *testing.T) {
	g := dram.Default()
	rc := NewRowCounters(g, dram.StridedR2SA)
	target := g.RefreshTargetOf(5)
	first := g.RowAt(dram.StridedR2SA, target.Subarray, target.FirstIdx)
	last := g.RowAt(dram.StridedR2SA, target.Subarray, target.LastIdx)
	other := g.RowAt(dram.StridedR2SA, target.Subarray, target.LastIdx+1)
	*rc.Counter(7, last) = 3
	*rc.Counter(1, last) = 9
	*rc.Counter(4, first) = 2
	*rc.Counter(4, other) = 5
	*rc.Counter(9, first) = 0 // allocated, but nothing to report
	type report struct{ bank, row, old int }
	var got []report
	rc.Refresh(5, func(bank, row int, old uint16) { got = append(got, report{bank, row, int(old)}) })
	want := []report{{4, first, 2}, {1, last, 9}, {7, last, 3}}
	if len(got) != len(want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reported %v, want %v (row by row, bank by bank)", got, want)
		}
	}
	if rc.Get(7, last) != 0 || rc.Get(4, first) != 0 || rc.Get(4, other) != 5 {
		t.Errorf("after REF: %d %d %d, want 0 0 5", rc.Get(7, last), rc.Get(4, first), rc.Get(4, other))
	}
	if n := rc.chunks(); n != 5 {
		t.Errorf("%d chunks after one REF, want the 5 written", n)
	}
}

// TestRowCountersWarmOpsAllocFree pins the store's steady-state ops at
// exactly zero mallocs: counting into chunks that already exist, reading,
// and a full refresh sweep that clears them and reports to a callback.
// runtime.MemStats counts the whole process, so each attempt starts from an
// identically prepared store and the fewest mallocs of three attempts must
// be 0: an allocation in these ops happens on every attempt, a stray one by
// another goroutine of the test binary on one at most.
func TestRowCountersWarmOpsAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := dram.Default()
	fewest := uint64(math.MaxUint64)
	var deltas []uint64
	for attempt := 0; attempt < 3 && fewest != 0; attempt++ {
		rc := NewRowCounters(g, dram.StridedR2SA)
		var rows [][2]int
		for k := 0; k < g.REFsPerWindow(); k += 97 {
			target := g.RefreshTargetOf(k)
			row := g.RowAt(dram.StridedR2SA, target.Subarray, target.FirstIdx)
			rows = append(rows, [2]int{k % g.BanksPerSubChannel, row})
			rc.Counter(k%g.BanksPerSubChannel, row)
		}
		cleared, sum := 0, 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			for _, r := range rows {
				*rc.Counter(r[0], r[1])++
				sum += int(rc.Get(r[0], r[1]))
			}
		}
		for k := 0; k < g.REFsPerWindow(); k++ {
			rc.Refresh(k, func(bank, row int, old uint16) { cleared++ })
		}
		runtime.ReadMemStats(&after)
		if cleared != len(rows) || sum != 5050*len(rows) {
			t.Fatalf("read sum %d, sweep reported %d cleared rows; want %d, %d", sum, cleared, 5050*len(rows), len(rows))
		}
		n := after.Mallocs - before.Mallocs
		deltas = append(deltas, n)
		if n < fewest {
			fewest = n
		}
	}
	if fewest != 0 {
		t.Errorf("warm count, read and refresh sweep allocated %v times per attempt, want 0", deltas)
	}
}

// fuzzGeometry is small enough that decoded rows often share chunks and
// REF targets: 4 banks of 4 chunks, 512 REFs per window.
var fuzzGeometry = dram.Geometry{
	SubChannels: 1, BanksPerSubChannel: 4, RowsPerBank: 4 * counterChunkRows,
	RowBytes: 4096, LineBytes: 64, MOPLines: 4, SubarrayRows: 512, RowsPerREF: 8,
}

// FuzzRowCounters checks RowCounters against a map from (bank, row) to
// counter value. The input's first byte picks the row mapping; then each
// 5-byte op [kind, bank, row high, row low, arg] decodes to one of: add
// arg+1 to a counter, refresh the REF index the row bytes give, flip a
// bit drawn from an RNG seeded by the row bytes and arg, read a counter,
// or take a bank's max. Only adds and flips may allocate chunks.
func FuzzRowCounters(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := fuzzGeometry
		mapping := dram.R2SAMapping(data[0] % 2)
		rc := NewRowCounters(g, mapping)
		model := map[[2]int]uint16{}
		touched := map[[2]int]bool{} // chunks written
		for ops := data[1:]; len(ops) >= 5; ops = ops[5:] {
			bank := int(ops[1]) % g.BanksPerSubChannel
			raw := int(ops[2])<<8 | int(ops[3])
			row := raw % g.RowsPerBank
			arg := ops[4]
			chunks := rc.chunks()
			switch ops[0] % 5 {
			case 0: // add
				*rc.Counter(bank, row) += uint16(arg) + 1
				model[[2]int{bank, row}] += uint16(arg) + 1
				touched[[2]int{bank, row / counterChunkRows}] = true
			case 1: // refresh
				target := g.RefreshTargetOf(raw)
				var got [][3]int
				rc.Refresh(raw, func(b, r int, old uint16) { got = append(got, [3]int{b, r, int(old)}) })
				var want [][3]int
				for idx := target.FirstIdx; idx <= target.LastIdx; idx++ {
					for b := 0; b < g.BanksPerSubChannel; b++ {
						for key, v := range model {
							if key[0] == b && v != 0 && g.Subarray(mapping, key[1]) == target.Subarray &&
								g.PhysicalIndex(mapping, key[1]) == idx {
								want = append(want, [3]int{b, key[1], int(v)})
								delete(model, key)
							}
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("REF %d reported %v, want %v", raw, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("REF %d reported %v, want %v", raw, got, want)
					}
				}
				if rc.chunks() != chunks {
					t.Fatalf("REF %d allocated %d chunks", raw, rc.chunks()-chunks)
				}
			case 2: // bit flip
				width := 12 + 4*int(arg%2)
				seed := uint64(raw)<<8 | uint64(arg)
				b, r, bit := rc.Flip(stats.NewRNG(seed), width)
				draw := stats.NewRNG(seed)
				wb, wr, wbit := draw.Intn(g.BanksPerSubChannel), draw.Intn(g.RowsPerBank), draw.Intn(width)
				if b != wb || r != wr || bit != wbit {
					t.Fatalf("flip drew bank %d row %d bit %d, want %d %d %d", b, r, bit, wb, wr, wbit)
				}
				model[[2]int{b, r}] ^= 1 << bit
				touched[[2]int{b, r / counterChunkRows}] = true
			case 3: // read
				if got, want := rc.Get(bank, row), model[[2]int{bank, row}]; got != want {
					t.Fatalf("Get(%d, %d) = %d, want %d", bank, row, got, want)
				}
			case 4: // max
				want := 0
				for key, v := range model {
					if key[0] == bank && int(v) > want {
						want = int(v)
					}
				}
				if got := rc.Max(bank); got != want {
					t.Fatalf("Max(%d) = %d, want %d", bank, got, want)
				}
			}
			if ops[0]%5 > 2 && rc.chunks() != chunks {
				t.Fatalf("op %d allocated a chunk", ops[0]%5)
			}
		}
		for key, v := range model {
			if got := rc.Get(key[0], key[1]); got != v {
				t.Fatalf("Get(%d, %d) = %d, want %d", key[0], key[1], got, v)
			}
		}
		if rc.chunks() != len(touched) {
			t.Fatalf("%d chunks allocated, %d written", rc.chunks(), len(touched))
		}
	})
}
