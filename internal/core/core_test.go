package core

import (
	"testing"

	"mirza/internal/dram"
	"mirza/internal/track"
)

func TestConfigPresetsMatchTableVII(t *testing.T) {
	cases := []struct {
		trhd, fth, w, regions, sram int
	}{
		{500, 660, 8, 256, 340},
		{1000, 1500, 12, 128, 196},
		{2000, 3330, 16, 64, 116},
		{4800, 8186, 36, 32, 72},
	}
	for _, c := range cases {
		cfg, err := ForTRHD(c.trhd)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("TRHD=%d: %v", c.trhd, err)
		}
		if cfg.FTH != c.fth || cfg.MINTWindow != c.w || cfg.Regions != c.regions {
			t.Errorf("TRHD=%d: got FTH=%d W=%d regions=%d, want %d/%d/%d",
				c.trhd, cfg.FTH, cfg.MINTWindow, cfg.Regions, c.fth, c.w, c.regions)
		}
		if got := cfg.SRAMBytesPerBank(); got != c.sram {
			t.Errorf("TRHD=%d: SRAM/bank = %d bytes, want %d (Table VII)", c.trhd, got, c.sram)
		}
	}
	if _, err := ForTRHD(123); err == nil {
		t.Error("unknown threshold should error")
	}
}

func TestConfigValidation(t *testing.T) {
	base, _ := ForTRHD(1000)
	bad := base
	bad.MINTWindow = 3
	if err := bad.Validate(); err == nil {
		t.Error("W < 4 must be rejected (Section V.D)")
	}
	bad = base
	bad.Regions = 100 // does not divide 128
	if err := bad.Validate(); err == nil {
		t.Error("regions not dividing subarrays must be rejected")
	}
	bad = base
	bad.QueueSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero queue must be rejected")
	}
}

func TestRegionMapping(t *testing.T) {
	g := dram.Default()
	// 128 regions = 1 per subarray, strided mapping.
	cfg, _ := ForTRHD(1000)
	if cfg.RegionRows() != 1024 {
		t.Fatalf("RegionRows = %d", cfg.RegionRows())
	}
	for _, row := range []int{0, 1, 127, 128, 131071} {
		want := g.Subarray(dram.StridedR2SA, row)
		if got := regionOf(cfg, row); got != want {
			t.Errorf("row %d: region %d, want subarray %d", row, got, want)
		}
	}
	// 256 regions = 2 per subarray: physical halves of each subarray.
	cfg500, _ := ForTRHD(500)
	saRows := g.SubarrayRows
	rLow := g.RowAt(dram.StridedR2SA, 3, 10)        // physical idx 10 -> lower half
	rHigh := g.RowAt(dram.StridedR2SA, 3, saRows-1) // upper half
	if regionOf(cfg500, rLow) != 3*2 {
		t.Errorf("lower half region = %d, want %d", regionOf(cfg500, rLow), 6)
	}
	if regionOf(cfg500, rHigh) != 3*2+1 {
		t.Errorf("upper half region = %d, want %d", regionOf(cfg500, rHigh), 7)
	}
	// 64 regions = 2 subarrays per region.
	cfg2k, _ := ForTRHD(2000)
	r0 := g.RowAt(dram.StridedR2SA, 0, 5)
	r1 := g.RowAt(dram.StridedR2SA, 1, 5)
	r2 := g.RowAt(dram.StridedR2SA, 2, 5)
	if regionOf(cfg2k, r0) != regionOf(cfg2k, r1) {
		t.Error("subarrays 0 and 1 should share a region at 64 regions")
	}
	if regionOf(cfg2k, r0) == regionOf(cfg2k, r2) {
		t.Error("subarrays 0 and 2 should not share a region at 64 regions")
	}
}

func TestEdgeNeighborRegion(t *testing.T) {
	cfg, _ := ForTRHD(500) // 256 regions: 2 per subarray, boundary at idx 512
	g := cfg.Geometry
	// Row at physical index 511 (last of region 2k) must also bump region 2k+1.
	row := g.RowAt(cfg.Mapping, 7, 511)
	if nb := edgeOf(cfg, row); nb != 7*2+1 {
		t.Errorf("edge 511: neighbor region %d, want %d", nb, 15)
	}
	// Row at physical index 512 (first of upper region) must bump the lower.
	row = g.RowAt(cfg.Mapping, 7, 512)
	if nb := edgeOf(cfg, row); nb != 7*2 {
		t.Errorf("edge 512: neighbor region %d, want %d", nb, 14)
	}
	// Interior rows and subarray-edge rows have no neighbor region.
	if nb := edgeOf(cfg, g.RowAt(cfg.Mapping, 7, 100)); nb != -1 {
		t.Errorf("interior row has neighbor region %d", nb)
	}
	if nb := edgeOf(cfg, g.RowAt(cfg.Mapping, 7, 0)); nb != -1 {
		t.Errorf("subarray edge row has neighbor region %d", nb)
	}
	// Regions >= subarray size: no edge handling needed.
	cfg1k, _ := ForTRHD(1000)
	if nb := edgeOf(cfg1k, 12345); nb != -1 {
		t.Errorf("whole-subarray regions should have no edge neighbors, got %d", nb)
	}
}

func TestQueueSemantics(t *testing.T) {
	q := NewQueue(4)
	if q.Full() || q.Len() != 0 {
		t.Fatal("fresh queue state wrong")
	}
	for i, row := range []int{10, 20, 30} {
		if !q.Insert(row) {
			t.Fatalf("insert %d failed", row)
		}
		if q.Len() != i+1 {
			t.Fatalf("len = %d", q.Len())
		}
	}
	if q.Insert(20) {
		t.Error("duplicate insert must fail (no duplicates, Section IV.A)")
	}
	if _, ok := q.Touch(20); !ok {
		t.Error("touch of queued row failed")
	}
	if tard, _ := q.Touch(20); tard != 3 {
		t.Errorf("tardiness = %d, want 3 (insert=1 + two touches)", tard)
	}
	if !q.Insert(40) || !q.Full() {
		t.Error("queue should fill at 4 entries")
	}
	if q.Insert(50) {
		t.Error("insert into full queue must fail")
	}
	// TakeMax returns the highest-tardiness entry.
	e, ok := q.TakeMax()
	if !ok || e.Row != 20 || e.Tardiness != 3 {
		t.Errorf("TakeMax = %+v", e)
	}
	if q.Full() || q.Len() != 3 {
		t.Error("TakeMax should free a slot")
	}
}

// newTestMirza builds a small-geometry MIRZA for fast unit tests.
func newTestMirza(t *testing.T, mutate func(*Config)) (*Mirza, *track.CountingSink) {
	t.Helper()
	cfg, err := ForTRHD(1000)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sink := &track.CountingSink{}
	m, err := New(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	return m, sink
}

func TestFilteringAbsorbsBelowFTH(t *testing.T) {
	m, _ := newTestMirza(t, nil)
	row := m.Config().Geometry.RowAt(m.Config().Mapping, 0, 100)
	region := regionOf(m.Config(), row)
	for i := 0; i < m.Config().FTH; i++ {
		m.OnActivate(0, row, 0)
	}
	if m.Stats.Escaped != 0 {
		t.Fatalf("escaped %d ACTs below FTH", m.Stats.Escaped)
	}
	if got := m.RegionCount(0, region); got != m.Config().FTH {
		t.Fatalf("region count = %d, want %d", got, m.Config().FTH)
	}
	// Counter saturates at FTH+1; further ACTs escape.
	for i := 0; i < 100; i++ {
		m.OnActivate(0, row, 0)
	}
	if got := m.RegionCount(0, region); got != m.Config().FTH+1 {
		t.Errorf("region counter = %d, want saturation at FTH+1", got)
	}
	// First post-FTH ACT increments to FTH+1 and is still filtered; the
	// remaining 99 escape.
	if m.Stats.Escaped != 99 {
		t.Errorf("escaped = %d, want 99", m.Stats.Escaped)
	}
}

func TestMINTSelectionRateIsOneInW(t *testing.T) {
	m, _ := newTestMirza(t, func(c *Config) { c.FTH = 0; c.QTH = 1 << 30 })
	g := m.Config().Geometry
	// With FTH=0 the first ACT to the region is filtered (counter 0<=0 ->
	// increment), everything after escapes. Use many distinct rows so the
	// queue-touch path stays cold, and drain the queue whenever MIRZA asks
	// for an ALERT so insertions never drop.
	const n = 120000
	for i := 0; i < n; i++ {
		m.OnActivate(0, g.RowAt(m.Config().Mapping, i%128, (i/128)%1024), 0)
		if m.WantsALERT() {
			m.ServiceALERT(0)
		}
	}
	if m.Stats.DroppedSel != 0 {
		t.Fatalf("%d selections dropped", m.Stats.DroppedSel)
	}
	rate := float64(m.Stats.Selections) / float64(m.Stats.Escaped)
	want := 1.0 / float64(m.Config().MINTWindow)
	if rate < want*0.9 || rate > want*1.1 {
		t.Errorf("selection rate = %v, want ~%v", rate, want)
	}
}

func TestQueueFullRaisesALERTAndServiceDrains(t *testing.T) {
	m, sink := newTestMirza(t, func(c *Config) { c.FTH = 0; c.MINTWindow = 4 })
	g := m.Config().Geometry
	i := 0
	for !m.WantsALERT() && i < 100000 {
		m.OnActivate(0, g.RowAt(m.Config().Mapping, i%128, (i/128)%1000), 0)
		i++
	}
	if !m.WantsALERT() {
		t.Fatal("queue never filled / ALERT never requested")
	}
	if len(m.QueueSnapshot(0)) != m.Config().QueueSize {
		t.Fatalf("queue holds %d entries at ALERT, want full %d",
			len(m.QueueSnapshot(0)), m.Config().QueueSize)
	}
	m.ServiceALERT(0)
	if sink.Mitigations == 0 {
		t.Fatal("service mitigated nothing")
	}
	if sink.VictimRows != sink.Mitigations*int64(track.MitigationVictims) {
		t.Errorf("victims = %d for %d mitigations", sink.VictimRows, sink.Mitigations)
	}
	if len(m.QueueSnapshot(0)) != m.Config().QueueSize-1 {
		t.Errorf("service should drain exactly one entry per bank")
	}
	if m.WantsALERT() {
		t.Error("ALERT should clear once no queue is full")
	}
}

func TestTardinessBeyondQTHRaisesALERT(t *testing.T) {
	m, _ := newTestMirza(t, func(c *Config) { c.FTH = 0; c.MINTWindow = 4 })
	g := m.Config().Geometry
	// Drive ACTs until some row enters the queue.
	i := 0
	for len(m.QueueSnapshot(0)) == 0 && i < 100000 {
		m.OnActivate(0, g.RowAt(m.Config().Mapping, i%128, (i/128)%1000), 0)
		i++
	}
	entries := m.QueueSnapshot(0)
	if len(entries) == 0 {
		t.Fatal("nothing entered the queue")
	}
	row := entries[0].Row
	for j := 0; j <= m.Config().QTH; j++ {
		m.OnActivate(0, row, 0)
	}
	if !m.WantsALERT() {
		t.Error("tardiness beyond QTH must raise ALERT")
	}
	snap := m.QueueSnapshot(0)
	if snap[0].Tardiness <= m.Config().QTH {
		t.Errorf("tardiness = %d, want > QTH=%d", snap[0].Tardiness, m.Config().QTH)
	}
	// Service must pick the highest-tardiness entry.
	var mitigated []int
	m2 := m // alias for closure clarity
	_ = m2
	m.ServiceALERT(0)
	for _, e := range m.QueueSnapshot(0) {
		mitigated = append(mitigated, e.Row)
		if e.Row == row {
			t.Error("highest-tardiness row should have been mitigated first")
		}
	}
}

func TestRefreshWalkResetsRCT(t *testing.T) {
	m, _ := newTestMirza(t, nil)
	cfg := m.Config()
	g := cfg.Geometry
	row := g.RowAt(cfg.Mapping, 0, 100)
	region := regionOf(cfg, row)
	for i := 0; i < 500; i++ {
		m.OnActivate(0, row, 0)
	}
	if m.RegionCount(0, region) != 500 {
		t.Fatal("precondition failed")
	}
	// Walk one full refresh window of REFs.
	for k := 0; k < g.REFsPerWindow(); k++ {
		m.OnREF(k, 0)
	}
	if got := m.RegionCount(0, region); got != 0 {
		t.Errorf("region count after full refresh window = %d, want 0", got)
	}
}

// The Appendix B reset-policy scenarios. Eager reset (clear at the first
// REF of the region) is broken by targeting a row refreshed late in the
// region: FTH-1 activations land just before the first REF and FTH-1 more
// between the first and last REF, all filtered. Lazy reset (clear at the
// last REF) is broken symmetrically by targeting a row refreshed early.
// Safe reset (RRC hand-off) must let activations escape filtering in both
// scenarios.

func TestEagerResetScenario(t *testing.T) {
	for _, policy := range []ResetPolicy{EagerReset, SafeReset} {
		m, _ := newTestMirza(t, func(c *Config) { c.ResetPolicy = policy })
		cfg := m.Config()
		g := cfg.Geometry
		// Target a row refreshed at the END of region 0's refresh.
		row := g.RowAt(cfg.Mapping, 0, g.SubarrayRows-1)

		for i := 0; i < cfg.FTH-1; i++ { // just before the region's first REF
			m.OnActivate(0, row, 0)
		}
		m.OnREF(0, 0)                    // region 0 refresh begins
		for i := 0; i < cfg.FTH-1; i++ { // between first and last REF
			m.OnActivate(0, row, 0)
		}
		for k := 1; k < g.REFsPerSubarray(); k++ {
			m.OnREF(k, 0)
		}

		if policy == EagerReset {
			if m.Stats.Escaped != 0 {
				t.Errorf("eager: expected the full 2(FTH-1) ACTs filtered (the insecurity), %d escaped", m.Stats.Escaped)
			}
		} else {
			if m.Stats.Escaped == 0 {
				t.Error("safe reset must not filter 2(FTH-1) activations")
			}
		}
	}
}

func TestLazyResetScenario(t *testing.T) {
	for _, policy := range []ResetPolicy{LazyReset, SafeReset} {
		m, _ := newTestMirza(t, func(c *Config) { c.ResetPolicy = policy })
		cfg := m.Config()
		g := cfg.Geometry
		// Target a row refreshed at the START of region 0's refresh.
		row := g.RowAt(cfg.Mapping, 0, 0)

		m.OnREF(0, 0)                    // the row itself is refreshed here
		for i := 0; i < cfg.FTH-1; i++ { // between first and last REF
			m.OnActivate(0, row, 0)
		}
		for k := 1; k < g.REFsPerSubarray(); k++ { // region refresh completes
			m.OnREF(k, 0)
		}
		for i := 0; i < cfg.FTH-1; i++ { // after the (lazy) reset
			m.OnActivate(0, row, 0)
		}

		if policy == LazyReset {
			if m.Stats.Escaped != 0 {
				t.Errorf("lazy: expected the full 2(FTH-1) ACTs filtered (the insecurity), %d escaped", m.Stats.Escaped)
			}
		} else {
			if m.Stats.Escaped == 0 {
				t.Error("safe reset must not filter 2(FTH-1) activations")
			}
		}
	}
}

func TestEdgeRowDoubleIncrement(t *testing.T) {
	m, _ := newTestMirza(t, func(c *Config) {
		// 256 regions: boundary inside each subarray.
		c.Regions = 256
		c.FTH = 660
	})
	cfg := m.Config()
	g := cfg.Geometry
	row := g.RowAt(cfg.Mapping, 0, 511) // last row of region 0
	m.OnActivate(0, row, 0)
	if m.Stats.EdgeDouble != 1 {
		t.Fatalf("edge double increments = %d, want 1", m.Stats.EdgeDouble)
	}
	if m.RegionCount(0, 0) != 1 || m.RegionCount(0, 1) != 1 {
		t.Errorf("both boundary regions must be incremented: %d, %d",
			m.RegionCount(0, 0), m.RegionCount(0, 1))
	}
}

func TestResetStatsPreservesState(t *testing.T) {
	m, _ := newTestMirza(t, nil)
	row := m.Config().Geometry.RowAt(m.Config().Mapping, 0, 10)
	for i := 0; i < 100; i++ {
		m.OnActivate(0, row, 0)
	}
	region := regionOf(m.Config(), row)
	before := m.RegionCount(0, region)
	m.ResetStats()
	if m.Stats.ACTs != 0 {
		t.Error("stats not reset")
	}
	if m.RegionCount(0, region) != before {
		t.Error("ResetStats must not clear RCT state")
	}
}
