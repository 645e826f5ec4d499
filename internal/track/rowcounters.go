package track

import (
	"mirza/internal/dram"
	"mirza/internal/stats"
)

// RowCounters holds a 16-bit activation counter for every row of every
// bank of a sub-channel: the state of the per-row trackers (PRAC, MoPAC
// and the oracle).
//
// The counters are kept in chunks of counterChunkRows rows, allocated when
// a row of the chunk is first written; an absent chunk reads as all zeros.
// A dense array would be 8 MiB per sub-channel at the default geometry,
// and how much of it is resident would depend on where the Go heap placed
// it and on the scavenger's timing, so peak memory would vary from run to
// run. A simulation activates a small share of the rows, and the counters'
// footprint follows the rows it activates (the sparse per-bank store of
// Ramulator2's OracleRH, SNIPPETS.md snippet 2).
type RowCounters struct {
	g       dram.Geometry
	mapping dram.R2SAMapping
	banks   [][]*counterChunk // [bank][row/counterChunkRows], nil until written
}

// MaxRowCount is the largest value a RowCounters counter holds, and so the
// largest threshold a tracker built on them can count up to.
const MaxRowCount = 1<<16 - 1

// counterChunkRows is how many rows' counters are allocated at once.
const counterChunkRows = 1024

type counterChunk [counterChunkRows]uint16

// NewRowCounters returns all-zero counters for every row of g, refreshed
// in the order mapping lays rows out in subarrays.
func NewRowCounters(g dram.Geometry, mapping dram.R2SAMapping) RowCounters {
	rc := RowCounters{g: g, mapping: mapping, banks: make([][]*counterChunk, g.BanksPerSubChannel)}
	chunks := (g.RowsPerBank + counterChunkRows - 1) / counterChunkRows
	for b := range rc.banks {
		rc.banks[b] = make([]*counterChunk, chunks)
	}
	return rc
}

// Counter returns row's counter in bank, allocating its chunk on first use.
func (rc *RowCounters) Counter(bank, row int) *uint16 {
	cs := rc.banks[bank]
	c := cs[row/counterChunkRows]
	if c == nil {
		c = new(counterChunk)
		cs[row/counterChunkRows] = c
	}
	return &c[row%counterChunkRows]
}

// Get returns row's counter in bank without allocating.
func (rc *RowCounters) Get(bank, row int) uint16 {
	if c := rc.banks[bank][row/counterChunkRows]; c != nil {
		return c[row%counterChunkRows]
	}
	return 0
}

// Refresh clears, in every bank, the counters of the rows the refIndex-th
// REF refreshes. For each counter it clears from a nonzero value it calls
// cleared (if not nil) with that value, row by row and bank by bank within
// a row. Absent chunks are skipped: they hold only zeros.
func (rc *RowCounters) Refresh(refIndex int, cleared func(bank, row int, old uint16)) {
	t := rc.g.RefreshTargetOf(refIndex)
	for idx := t.FirstIdx; idx <= t.LastIdx; idx++ {
		row := rc.g.RowAt(rc.mapping, t.Subarray, idx)
		for b, cs := range rc.banks {
			c := cs[row/counterChunkRows]
			if c == nil {
				continue
			}
			old := c[row%counterChunkRows]
			c[row%counterChunkRows] = 0
			if old != 0 && cleared != nil {
				cleared(b, row, old)
			}
		}
	}
}

// Max returns the largest counter held in bank.
func (rc *RowCounters) Max(bank int) int {
	max := 0
	for _, c := range rc.banks[bank] {
		if c == nil {
			continue
		}
		for _, v := range c {
			if int(v) > max {
				max = int(v)
			}
		}
	}
	return max
}

// Flip flips one of the low width bits of a random row's counter in a
// random bank, drawing bank, row and bit from rng in that order. It models
// a transient upset of a counter; the chunk is allocated if absent.
func (rc *RowCounters) Flip(rng *stats.RNG, width int) (bank, row, bit int) {
	bank = rng.Intn(len(rc.banks))
	row = rng.Intn(rc.g.RowsPerBank)
	bit = rng.Intn(width)
	*rc.Counter(bank, row) ^= 1 << bit
	return bank, row, bit
}
