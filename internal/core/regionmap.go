package core

import (
	"math/bits"

	"mirza/internal/dram"
)

// divisor divides non-negative ints by a fixed n > 0, with a shift and a
// mask when n is a power of two and with hardware division otherwise.
type divisor struct {
	n     int
	shift uint
	pow2  bool
}

func newDivisor(n int) divisor {
	return divisor{n: n, shift: uint(bits.TrailingZeros(uint(n))), pow2: n&(n-1) == 0}
}

func (d divisor) div(x int) int {
	if d.pow2 {
		return x >> d.shift
	}
	return x / d.n
}

func (d divisor) mod(x int) int {
	if d.pow2 {
		return x & (d.n - 1)
	}
	return x % d.n
}

// regionMap is a Config's row-to-region arithmetic, computed once in New.
// OnActivate and OnREF reach it through the Mirza pointer, so the per-ACT
// path copies no Config and, on power-of-two geometry (every ForTRHD preset
// on the Table III baseline), divides nothing.
//
// A region is derived from a row's physical placement: whole subarrays
// group into a region when Regions <= subarrays, and a subarray splits into
// equal physical-index stripes when Regions > subarrays.
type regionMap struct {
	strided           bool    // R2SA mapping: strided, else sequential
	subarrays, saRows divisor // subarrays per bank, rows per subarray
	perSA             int     // regions per subarray (1 when regions span whole subarrays)
	saPerRegion       divisor // subarrays per region (1 when regions split subarrays)
	regionRows        divisor // physical rows per region stripe: rows per subarray / perSA
}

// newRegionMap precomputes the region arithmetic of a validated c.
func newRegionMap(c Config) regionMap {
	g := c.Geometry
	s := g.Subarrays()
	perSA, saPerRegion := 1, 1
	if c.Regions > s {
		perSA = c.Regions / s
	} else {
		saPerRegion = s / c.Regions
	}
	return regionMap{
		strided:     c.Mapping == dram.StridedR2SA,
		subarrays:   newDivisor(s),
		saRows:      newDivisor(g.SubarrayRows),
		perSA:       perSA,
		saPerRegion: newDivisor(saPerRegion),
		regionRows:  newDivisor(g.SubarrayRows / perSA),
	}
}

// regionAt returns the region holding physical index idx of subarray sa.
func (rm *regionMap) regionAt(sa, idx int) int {
	if rm.perSA == 1 {
		return rm.saPerRegion.div(sa)
	}
	return sa*rm.perSA + rm.regionRows.div(idx)
}

// of returns the RCT region of a logical row and the adjacent region whose
// counter must also be incremented when row sits on an intra-subarray
// region boundary (footnote 3 of Section VI.B: a victim at a region edge
// would otherwise let both aggressors of a double-sided pair accrue FTH
// each). edge is -1 when the row is not an edge row or regions are not
// smaller than a subarray.
func (rm *regionMap) of(row int) (region, edge int) {
	var sa, idx int // the row's subarray and physical index in it
	if rm.strided {
		sa, idx = rm.subarrays.mod(row), rm.subarrays.div(row)
	} else {
		sa, idx = rm.saRows.div(row), rm.saRows.mod(row)
	}
	region = rm.regionAt(sa, idx)
	if rm.perSA == 1 {
		return region, -1
	}
	switch within := rm.regionRows.mod(idx); {
	case within == 0 && idx > 0:
		return region, region - 1
	case within == rm.regionRows.n-1 && idx < rm.saRows.n-1:
		return region, region + 1
	}
	return region, -1
}

// refRegion returns the region REF target t refreshes and whether t begins
// or ends that region's refresh. A region's refresh begins when the REF
// covers its first physical row and ends when it covers its last. With
// Regions <= subarrays a region spans several subarrays: it begins at the
// first REF of its first subarray and ends at the last REF of its last
// subarray.
func (rm *regionMap) refRegion(t dram.RefreshTarget) (region int, begins, ends bool) {
	region = rm.regionAt(t.Subarray, t.FirstIdx)
	if rm.perSA > 1 {
		return region, rm.regionRows.mod(t.FirstIdx) == 0, rm.regionRows.mod(t.LastIdx+1) == 0
	}
	pos := rm.saPerRegion.mod(t.Subarray)
	return region, t.FirstOfSA && pos == 0, t.LastOfSA && pos == rm.saPerRegion.n-1
}
