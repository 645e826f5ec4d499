package track

import (
	"testing"
	"testing/quick"

	"mirza/internal/dram"
	"mirza/internal/stats"
)

func TestMINTSamplerWindowSemantics(t *testing.T) {
	rng := stats.NewRNG(1)
	s := NewMINTSampler(4, rng)
	// Fig 2: exactly one of every W observed rows is selected, uniformly.
	counts := map[int]int{}
	const windows = 50000
	for w := 0; w < windows; w++ {
		sel := -1
		for i := 0; i < 4; i++ {
			if s.ObserveRolling(i) {
				if sel >= 0 {
					t.Fatal("two selections in one window")
				}
				sel = i
			}
		}
		if sel < 0 {
			t.Fatal("no selection in a full window")
		}
		counts[sel]++
	}
	for i := 0; i < 4; i++ {
		frac := float64(counts[i]) / windows
		if frac < 0.23 || frac > 0.27 {
			t.Errorf("position %d selected %.3f of windows, want ~0.25", i, frac)
		}
	}
}

func TestMINTSamplerTake(t *testing.T) {
	s := NewMINTSampler(8, stats.NewRNG(2))
	// With fewer observations than the target, Take may return nothing;
	// after W observations it must have captured something.
	for i := 0; i < 8; i++ {
		s.Observe(100 + i)
	}
	row, ok := s.Take()
	if !ok || row < 100 || row > 107 {
		t.Fatalf("Take = %d, %v", row, ok)
	}
	// Take resets the window.
	if _, ok := s.Take(); ok {
		t.Error("second Take without observations should be empty")
	}
}

func TestMINTSamplerDeterminism(t *testing.T) {
	a := NewMINTSampler(12, stats.NewRNG(7))
	b := NewMINTSampler(12, stats.NewRNG(7))
	for i := 0; i < 10000; i++ {
		if a.ObserveRolling(i) != b.ObserveRolling(i) {
			t.Fatal("same seed must give identical selections")
		}
	}
}

func TestMINTProactiveMitigatesOnRFM(t *testing.T) {
	sink := &CountingSink{}
	m := NewMINT(MINTConfig{
		Geometry:      dram.Default(),
		Window:        12,
		MitigateOnRFM: true,
		Seed:          3,
	}, sink)
	// Feed a window's worth of ACTs, then an RFM opportunity.
	for i := 0; i < 12; i++ {
		m.OnActivate(0, 1000+i, 0)
	}
	m.OnRFM(0, 0)
	if sink.Mitigations != 1 {
		t.Fatalf("mitigations = %d, want 1", sink.Mitigations)
	}
	if sink.VictimRows != int64(MitigationVictims) {
		t.Errorf("victims = %d, want %d", sink.VictimRows, MitigationVictims)
	}
	if m.WantsALERT() {
		t.Error("proactive MINT must never request ALERT")
	}
}

func TestMINTMitigateEveryREFs(t *testing.T) {
	sink := &CountingSink{}
	m := NewMINT(MINTConfig{
		Geometry:          dram.Default(),
		Window:            4,
		MitigateEveryREFs: 4,
		Seed:              5,
	}, sink)
	for ref := 0; ref < 16; ref++ {
		for i := 0; i < 8; i++ {
			m.OnActivate(0, i, 0)
		}
		m.OnREF(ref, 0)
	}
	// Mitigation opportunities at REF 0, 4, 8, 12 = 4 (REF 0 has a
	// captured row because 8 ACTs preceded it).
	if sink.Mitigations != 4 {
		t.Errorf("mitigations = %d, want 4", sink.Mitigations)
	}
}

func TestPRACCountsAndAlerts(t *testing.T) {
	sink := &CountingSink{}
	p := NewPRAC(PRACConfig{
		Geometry:       dram.Default(),
		Mapping:        dram.StridedR2SA,
		AlertThreshold: 100,
	}, sink)
	row := 5000
	for i := 0; i < 99; i++ {
		p.OnActivate(3, row, 0)
	}
	if p.WantsALERT() {
		t.Fatal("ALERT before threshold")
	}
	p.OnActivate(3, row, 0)
	if !p.WantsALERT() {
		t.Fatal("no ALERT at threshold")
	}
	p.ServiceALERT(0)
	if sink.Mitigations != 1 {
		t.Fatalf("mitigations = %d", sink.Mitigations)
	}
	if p.WantsALERT() {
		t.Error("ALERT should clear after service")
	}
	if p.MaxCounter(3) != 0 {
		t.Error("mitigated row's counter should reset")
	}
}

func TestPRACRefreshResetsCounters(t *testing.T) {
	g := dram.Default()
	p := NewPRAC(PRACConfig{Geometry: g, Mapping: dram.StridedR2SA, AlertThreshold: 1000}, nil)
	// Row at subarray 0, physical index 0 is refreshed by REF 0.
	row := g.RowAt(dram.StridedR2SA, 0, 0)
	for i := 0; i < 500; i++ {
		p.OnActivate(0, row, 0)
	}
	if p.MaxCounter(0) != 500 {
		t.Fatalf("counter = %d", p.MaxCounter(0))
	}
	p.OnREF(0, 0)
	if p.MaxCounter(0) != 0 {
		t.Errorf("counter after refresh = %d, want 0", p.MaxCounter(0))
	}
}

func TestPRACPendingClearedByRefresh(t *testing.T) {
	g := dram.Default()
	p := NewPRAC(PRACConfig{Geometry: g, Mapping: dram.StridedR2SA, AlertThreshold: 10}, nil)
	row := g.RowAt(dram.StridedR2SA, 0, 1)
	for i := 0; i < 10; i++ {
		p.OnActivate(0, row, 0)
	}
	if !p.WantsALERT() {
		t.Fatal("no alert")
	}
	p.OnREF(0, 0) // refreshes physical rows 0..15 of subarray 0, incl. the row
	if p.WantsALERT() {
		t.Error("refresh of the offending row should clear the pending ALERT")
	}
}

// TestPRACCountersFollowActivatedRows pins PRAC's lazily allocated
// counters: a refresh sweep over rows that never activated leaves the
// store without a chunk, an activation allocates one chunk, and an absent
// chunk reads as zeros to refresh, MaxCounter and fault injection alike.
// It counts the store's own chunks, which no other goroutine can touch;
// TestRowCountersWarmOpsAllocFree pins the store's other ops at zero
// mallocs.
func TestPRACCountersFollowActivatedRows(t *testing.T) {
	g := dram.Default()
	p := NewPRAC(PRACConfig{Geometry: g, Mapping: dram.StridedR2SA, AlertThreshold: 1000}, nil)
	sweep := func() {
		for k := 0; k < g.REFsPerWindow(); k++ {
			p.OnREF(k, 0)
		}
	}
	sweep()
	if n := p.rows.chunks(); n != 0 {
		t.Fatalf("idle refresh sweep allocated %d chunks, want 0", n)
	}
	row := g.RowsPerBank - 1
	for i := 0; i < 7; i++ {
		p.OnActivate(2, row, 0)
	}
	if p.rows.chunks() != 1 || p.MaxCounter(2) != 7 || p.MaxCounter(3) != 0 {
		t.Fatalf("after 7 ACTs: %d chunks, max %d/%d; want 1 chunk, max 7/0",
			p.rows.chunks(), p.MaxCounter(2), p.MaxCounter(3))
	}
	sweep()
	if p.MaxCounter(2) != 0 || p.rows.chunks() != 1 {
		t.Errorf("after a refresh sweep: counter %d, %d chunks; want 0, 1", p.MaxCounter(2), p.rows.chunks())
	}
	rng := stats.NewRNG(3)
	for i := 0; i < 64; i++ {
		p.InjectStateFault(rng)
	}
	if p.rows.chunks() <= 1 {
		t.Errorf("fault injection into absent chunks left %d chunks", p.rows.chunks())
	}
}

func TestATHForTRHD(t *testing.T) {
	if ath := ATHForTRHD(1000); ath <= 0 || ath > 500 {
		t.Errorf("ATH(1000) = %d", ath)
	}
	if ATHForTRHD(2) != 1 {
		t.Errorf("tiny threshold must clamp to 1, got %d", ATHForTRHD(2))
	}
}

func TestSpaceSavingOverestimates(t *testing.T) {
	// Property: Space-Saving never underestimates a row's true count.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		ss := newSpaceSaving(8)
		truth := map[int]int64{}
		for i := 0; i < 2000; i++ {
			row := rng.Intn(40)
			truth[row]++
			ss.observe(row)
		}
		for _, e := range ss.entries {
			if e.count < truth[e.row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMithrilTracksHeavyHitter(t *testing.T) {
	sink := &CountingSink{}
	m := NewMithril(MithrilConfig{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		Entries:  16,
	}, sink)
	// One hot row among noise: the mitigation opportunity must pick it.
	rng := stats.NewRNG(9)
	hot := 4242
	var mitigated []int
	m2 := NewMithril(MithrilConfig{
		Geometry: dram.Default(), Mapping: dram.StridedR2SA, Entries: 16,
	}, FuncSink(func(bank, row, victims int, now dram.Time) {
		mitigated = append(mitigated, row)
	}))
	_ = m
	for i := 0; i < 5000; i++ {
		m2.OnActivate(0, hot, 0)
		m2.OnActivate(0, rng.Intn(100000), 0)
	}
	m2.OnRFM(0, 0) // no MitigateOnRFM configured: no-op
	if len(mitigated) != 0 {
		t.Fatal("RFM without MitigateOnRFM must not mitigate")
	}
	m2.ServiceALERT(0)
	if len(mitigated) != 1 || mitigated[0] != hot {
		t.Fatalf("mitigated %v, want the hot row %d", mitigated, hot)
	}
}

// TestTRRSamplerEvasion demonstrates the insecurity Table XII reports: an
// attacker who knows the deterministic sampling period parks a decoy
// activation on every sampled slot, so the aggressor is hammered thousands
// of times yet never enters the tracker and is never mitigated.
func TestTRRSamplerEvasion(t *testing.T) {
	var mitigated []int
	tr := NewTRR(TRRConfig{
		Geometry:          dram.Default(),
		Mapping:           dram.StridedR2SA,
		Entries:           28,
		MitigateEveryREFs: 4,
		SampleEvery:       16,
	}, FuncSink(func(bank, row, victims int, now dram.Time) {
		mitigated = append(mitigated, row)
	}))
	if !tr.Insecure() {
		t.Fatal("TRR must self-report as insecure")
	}
	aggressor := 99999
	ref := 0
	for round := 0; round < 3000; round++ {
		// 15 hammers in the sampler's shadow, then a decoy on the
		// sampled slot.
		for i := 0; i < 15; i++ {
			tr.OnActivate(0, aggressor, 0)
		}
		tr.OnActivate(0, 1000+round%32, 0)
		if round%25 == 0 {
			tr.OnREF(ref, 0)
			ref += 4
		}
	}
	for _, r := range mitigated {
		if r == aggressor {
			t.Fatal("sampler-evading pattern should keep the aggressor unmitigated")
		}
	}
	if len(mitigated) == 0 {
		t.Error("TRR should have mitigated decoys at REF opportunities")
	}
	// Sanity: benign-style uniform traffic IS tracked and mitigated.
	var benignMitigated []int
	tr2 := NewTRR(TRRConfig{
		Geometry: dram.Default(), Mapping: dram.StridedR2SA,
		Entries: 28, MitigateEveryREFs: 1,
	}, FuncSink(func(bank, row, victims int, now dram.Time) {
		benignMitigated = append(benignMitigated, row)
	}))
	hot := 777
	for i := 0; i < 10000; i++ {
		tr2.OnActivate(0, hot, 0)
	}
	tr2.OnREF(0, 0)
	if len(benignMitigated) != 1 || benignMitigated[0] != hot {
		t.Errorf("uniform hammering should be tracked: %v", benignMitigated)
	}
}

func TestNopBaseline(t *testing.T) {
	n := NewNop()
	n.OnActivate(0, 1, 0)
	n.OnREF(0, 0)
	n.OnRFM(0, 0)
	n.ServiceALERT(0)
	if n.WantsALERT() {
		t.Error("Nop wants ALERT")
	}
	if n.Stats.ACTs != 1 || n.Stats.RFMs != 1 {
		t.Errorf("stats = %+v", n.Stats)
	}
}

func TestCountingSinkAndFuncSink(t *testing.T) {
	s := &CountingSink{}
	s.RowMitigated(0, 1, 4, 0)
	s.RowMitigated(0, 2, 4, 0)
	if s.Mitigations != 2 || s.VictimRows != 8 {
		t.Errorf("sink = %+v", s)
	}
	called := 0
	FuncSink(func(bank, row, victims int, now dram.Time) { called++ }).RowMitigated(0, 0, 0, 0)
	if called != 1 {
		t.Error("FuncSink not invoked")
	}
}
