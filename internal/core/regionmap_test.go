package core

import (
	"fmt"
	"testing"

	"mirza/internal/dram"
)

// regionOf and edgeOf are the region map's answers for row under c.
func regionOf(c Config, row int) int {
	rm := newRegionMap(c)
	region, _ := rm.of(row)
	return region
}

func edgeOf(c Config, row int) int {
	rm := newRegionMap(c)
	_, edge := rm.of(row)
	return edge
}

// refRegionOf and refEdgeOf are the plain-division reference for
// regionMap.of, written straight from the Geometry placement functions.
func refRegionOf(c Config, row int) int {
	g := c.Geometry
	sa := g.Subarray(c.Mapping, row)
	s := g.Subarrays()
	if c.Regions <= s {
		return sa / (s / c.Regions)
	}
	perSA := c.Regions / s
	regionRows := g.SubarrayRows / perSA
	return sa*perSA + g.PhysicalIndex(c.Mapping, row)/regionRows
}

func refEdgeOf(c Config, row int) int {
	g := c.Geometry
	s := g.Subarrays()
	if c.Regions <= s {
		return -1
	}
	perSA := c.Regions / s
	regionRows := g.SubarrayRows / perSA
	idx := g.PhysicalIndex(c.Mapping, row)
	within := idx % regionRows
	base := g.Subarray(c.Mapping, row) * perSA
	switch {
	case within == 0 && idx > 0:
		return base + idx/regionRows - 1
	case within == regionRows-1 && idx < g.SubarrayRows-1:
		return base + idx/regionRows + 1
	default:
		return -1
	}
}

// refREFRegion is the plain-division reference for regionMap.refRegion.
func refREFRegion(c Config, t dram.RefreshTarget) (region int, begins, ends bool) {
	g := c.Geometry
	perSA := 1
	if c.Regions > g.Subarrays() {
		perSA = c.Regions / g.Subarrays()
	}
	regionRows := g.SubarrayRows / perSA
	if c.Regions <= g.Subarrays() {
		region = t.Subarray / (g.Subarrays() / c.Regions)
	} else {
		region = t.Subarray*perSA + t.FirstIdx/regionRows
	}
	saPerRegion := 1
	if c.Regions < g.Subarrays() {
		saPerRegion = g.Subarrays() / c.Regions
	}
	begins = t.FirstIdx%regionRows == 0 && (perSA > 1 || (t.FirstOfSA && t.Subarray%saPerRegion == 0))
	ends = (t.LastIdx+1)%regionRows == 0 && (perSA > 1 || (t.LastOfSA && t.Subarray%saPerRegion == saPerRegion-1))
	return region, begins, ends
}

// regionMapConfigs returns every ForTRHD preset under both R2SA mappings,
// plus configurations on a geometry whose subarray count (96) and subarray
// size (768 rows) are not powers of two, which exercise the division path.
func regionMapConfigs(t *testing.T) []Config {
	t.Helper()
	var out []Config
	for _, trhd := range []int{500, 1000, 2000, 4800} {
		c, err := ForTRHD(trhd)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	odd := out[1]
	odd.Geometry.SubarrayRows = 768
	odd.Geometry.RowsPerBank = 96 * 768
	for _, regions := range []int{32, 48, 96, 192, 384} {
		c := odd
		c.Regions = regions
		out = append(out, c)
	}
	n := len(out)
	for _, c := range out[:n] {
		c.Mapping = dram.SequentialR2SA
		out = append(out, c)
	}
	for _, c := range out {
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
	return out
}

// TestRegionMapMatchesReference checks the precomputed region map against
// the plain-division reference on every row of the bank (so every
// region-edge row) and on every REF of the refresh window.
func TestRegionMapMatchesReference(t *testing.T) {
	for _, c := range regionMapConfigs(t) {
		t.Run(fmt.Sprintf("%s/regions=%d/saRows=%d", c.Mapping, c.Regions, c.Geometry.SubarrayRows), func(t *testing.T) {
			rm := newRegionMap(c)
			edges := 0
			for row := 0; row < c.Geometry.RowsPerBank; row++ {
				region, edge := rm.of(row)
				if want := refRegionOf(c, row); region != want {
					t.Fatalf("row %d: region %d, want %d", row, region, want)
				}
				if want := refEdgeOf(c, row); edge != want {
					t.Fatalf("row %d: edge region %d, want %d", row, edge, want)
				}
				if edge >= 0 {
					edges++
				}
			}
			if perSA := c.Regions / c.Geometry.Subarrays(); perSA > 1 {
				if want := 2 * (perSA - 1) * c.Geometry.Subarrays(); edges != want {
					t.Errorf("%d edge rows, want %d", edges, want)
				}
			}
			for k := 0; k < c.Geometry.REFsPerWindow(); k++ {
				tgt := c.Geometry.RefreshTargetOf(k)
				region, begins, ends := rm.refRegion(tgt)
				wr, wb, we := refREFRegion(c, tgt)
				if region != wr || begins != wb || ends != we {
					t.Fatalf("REF %d: (%d,%v,%v), want (%d,%v,%v)", k, region, begins, ends, wr, wb, we)
				}
			}
		})
	}
}

func TestDivisor(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 96, 768, 1024} {
		d := newDivisor(n)
		for x := 0; x < 5000; x++ {
			if d.div(x) != x/n || d.mod(x) != x%n {
				t.Fatalf("n=%d x=%d: div %d mod %d", n, x, d.div(x), d.mod(x))
			}
		}
	}
}
