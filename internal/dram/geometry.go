package dram

import "fmt"

// Geometry describes the organization of the memory system, following the
// baseline configuration in Table III of the paper: 32GB of DDR5 organized
// as 1 channel x 2 sub-channels x 1 rank x 32 banks, with 128K rows of 4KB
// per bank, and subarrays of 1024 rows (128 subarrays per bank).
type Geometry struct {
	SubChannels        int // independent sub-channels per channel
	BanksPerSubChannel int // banks per sub-channel
	RowsPerBank        int // rows in each bank
	RowBytes           int // bytes per row (page size of the DRAM row)
	LineBytes          int // cache-line size
	MOPLines           int // consecutive lines per row segment (MOP4 => 4)
	SubarrayRows       int // rows per subarray (region granularity)
	RowsPerREF         int // physical rows refreshed by one REF command
}

// Default returns the Table III baseline geometry.
func Default() Geometry {
	return Geometry{
		SubChannels:        2,
		BanksPerSubChannel: 32,
		RowsPerBank:        128 * 1024,
		RowBytes:           4096,
		LineBytes:          64,
		MOPLines:           4,
		SubarrayRows:       1024,
		RowsPerREF:         16,
	}
}

// Validate reports an error if the geometry is inconsistent. Every field is
// checked positive before any of them is used as a divisor, so a valid
// geometry is safe to build a Decoder from.
func (g Geometry) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"SubChannels", g.SubChannels},
		{"BanksPerSubChannel", g.BanksPerSubChannel},
		{"RowsPerBank", g.RowsPerBank},
		{"RowBytes", g.RowBytes},
		{"LineBytes", g.LineBytes},
		{"MOPLines", g.MOPLines},
		{"SubarrayRows", g.SubarrayRows},
		{"RowsPerREF", g.RowsPerREF},
	} {
		if f.v <= 0 {
			return fmt.Errorf("dram: geometry %s must be positive, got %d", f.name, f.v)
		}
	}
	switch {
	case g.RowBytes%g.LineBytes != 0:
		return fmt.Errorf("dram: row size %d not a multiple of line size %d", g.RowBytes, g.LineBytes)
	case g.RowsPerBank%g.SubarrayRows != 0:
		return fmt.Errorf("dram: rows per bank %d not a multiple of subarray rows %d", g.RowsPerBank, g.SubarrayRows)
	case g.SubarrayRows%g.RowsPerREF != 0:
		return fmt.Errorf("dram: subarray rows %d not a multiple of rows per REF %d", g.SubarrayRows, g.RowsPerREF)
	case g.LinesPerRow()%g.MOPLines != 0:
		return fmt.Errorf("dram: lines per row %d not a multiple of MOP group %d", g.LinesPerRow(), g.MOPLines)
	}
	return nil
}

// LinesPerRow returns the number of cache lines per DRAM row.
func (g Geometry) LinesPerRow() int { return g.RowBytes / g.LineBytes }

// Banks returns the total number of banks across all sub-channels.
func (g Geometry) Banks() int { return g.SubChannels * g.BanksPerSubChannel }

// Subarrays returns the number of subarrays per bank.
func (g Geometry) Subarrays() int { return g.RowsPerBank / g.SubarrayRows }

// CapacityBytes returns the total channel capacity in bytes.
func (g Geometry) CapacityBytes() uint64 {
	return uint64(g.Banks()) * uint64(g.RowsPerBank) * uint64(g.RowBytes)
}

// REFsPerSubarray returns how many REF commands it takes to refresh one
// full subarray (64 for the defaults).
func (g Geometry) REFsPerSubarray() int { return g.SubarrayRows / g.RowsPerREF }

// REFsPerWindow returns how many REF commands refresh the whole bank
// (8192 for the defaults, matching tREFW/tREFI).
func (g Geometry) REFsPerWindow() int { return g.RowsPerBank / g.RowsPerREF }

// Address identifies one cache line's location in the channel.
type Address struct {
	SubChannel int
	Bank       int // bank index within the sub-channel
	Row        int // row index within the bank
	Col        int // line index within the row
}

// FlatBank returns a dense bank identifier across sub-channels, in
// [0, Banks()).
func (g Geometry) FlatBank(a Address) int {
	return a.SubChannel*g.BanksPerSubChannel + a.Bank
}

// Decompose maps a physical line-aligned byte address to its DRAM location
// using the Minimalist Open Page (MOP4) layout of Table III: consecutive
// physical lines fill a 4-line group within a row, then stripe across
// sub-channels and banks, then across the 16 MOP groups of the row, and
// finally across rows. This spreads a 4KB OS page over all banks while
// keeping 4-line bursts in an open row, which is what makes MOP the
// best-performing policy for the baseline. Per-access callers build a
// Decoder once instead.
func (g Geometry) Decompose(phys uint64) Address { return g.DecomposeWith(MOP4Mapping, phys) }

// Compose is the inverse of Decompose: it maps a DRAM location back to a
// physical byte address (line-aligned).
func (g Geometry) Compose(a Address) uint64 { return g.ComposeWith(MOP4Mapping, a) }

// R2SAMapping selects how logical row addresses are assigned to physical
// subarrays (Section IV.D of the paper).
type R2SAMapping int

const (
	// SequentialR2SA maps consecutive logical rows to the same subarray:
	// subarray = row / SubarrayRows. Spatially local accesses concentrate
	// on few subarrays, which defeats coarse-grained filtering (Table VI).
	SequentialR2SA R2SAMapping = iota
	// StridedR2SA maps consecutive logical rows to different subarrays:
	// subarray = row mod Subarrays, so every 128th row shares a subarray.
	// This spreads benign activations over all subarrays and is MIRZA's
	// proposed mapping.
	StridedR2SA
)

// String implements fmt.Stringer.
func (m R2SAMapping) String() string {
	switch m {
	case SequentialR2SA:
		return "sequential"
	case StridedR2SA:
		return "strided"
	default:
		return fmt.Sprintf("R2SAMapping(%d)", int(m))
	}
}

// Subarray returns the physical subarray holding logical row under mapping m.
func (g Geometry) Subarray(m R2SAMapping, row int) int {
	switch m {
	case StridedR2SA:
		return row % g.Subarrays()
	default:
		return row / g.SubarrayRows
	}
}

// PhysicalIndex returns the physical position of logical row within its
// subarray (0..SubarrayRows-1). Physically adjacent indices are Rowhammer
// neighbors; the aggressor at index i disturbs victims at i-1 and i+1 (and,
// at half strength, i-2 and i+2).
func (g Geometry) PhysicalIndex(m R2SAMapping, row int) int {
	switch m {
	case StridedR2SA:
		return row / g.Subarrays()
	default:
		return row % g.SubarrayRows
	}
}

// RowAt is the inverse of (Subarray, PhysicalIndex): it returns the logical
// row sitting at physical position idx of subarray sa under mapping m.
func (g Geometry) RowAt(m R2SAMapping, sa, idx int) int {
	switch m {
	case StridedR2SA:
		return idx*g.Subarrays() + sa
	default:
		return sa*g.SubarrayRows + idx
	}
}

// PhysicalNeighbors returns the logical rows physically adjacent to row at
// distance dist (1 or 2) on both sides, clipped at subarray boundaries.
// These are the victim rows refreshed when row is mitigated.
func (g Geometry) PhysicalNeighbors(m R2SAMapping, row, dist int) []int {
	sa := g.Subarray(m, row)
	idx := g.PhysicalIndex(m, row)
	var out []int
	if idx-dist >= 0 {
		out = append(out, g.RowAt(m, sa, idx-dist))
	}
	if idx+dist < g.SubarrayRows {
		out = append(out, g.RowAt(m, sa, idx+dist))
	}
	return out
}

// RefreshTarget describes the physical rows refreshed by the k-th REF of a
// refresh window: REF commands walk the bank one subarray at a time,
// RowsPerREF physical rows per REF (Appendix B).
type RefreshTarget struct {
	Subarray  int  // subarray being refreshed
	FirstIdx  int  // first physical index refreshed (inclusive)
	LastIdx   int  // last physical index refreshed (inclusive)
	FirstOfSA bool // true if this REF begins the subarray
	LastOfSA  bool // true if this REF completes the subarray
}

// RefreshTargetOf returns the refresh target of REF number k (mod the
// refresh window).
func (g Geometry) RefreshTargetOf(k int) RefreshTarget {
	k %= g.REFsPerWindow()
	perSA := g.REFsPerSubarray()
	sa := k / perSA
	step := k % perSA
	return RefreshTarget{
		Subarray:  sa,
		FirstIdx:  step * g.RowsPerREF,
		LastIdx:   step*g.RowsPerREF + g.RowsPerREF - 1,
		FirstOfSA: step == 0,
		LastOfSA:  step == perSA-1,
	}
}
