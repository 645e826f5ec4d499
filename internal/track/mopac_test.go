package track

import (
	"math"
	"testing"

	"mirza/internal/dram"
)

func TestMoPACEstimateUnbiased(t *testing.T) {
	m := NewMoPAC(MoPACConfig{
		Geometry: dram.Default(), Mapping: dram.StridedR2SA,
		SampleProb: 0.25, AlertThreshold: MaxRowCount - 3, Seed: 3,
	}, nil)
	row := 777
	const n = 40000
	for i := 0; i < n; i++ {
		m.OnActivate(0, row, 0)
	}
	got := float64(m.rows.Get(0, row))
	if math.Abs(got-n) > 0.05*n {
		t.Errorf("estimated count %v after %d ACTs, want within 5%%", got, n)
	}
}

// TestMoPACIsNotStateInjector pins that MoPAC does not pick up a fault
// hook from the ABO core it shares with PRAC: a bit-flip plan draws
// nothing for it, so adding one would move every fault log it appears in.
func TestMoPACIsNotStateInjector(t *testing.T) {
	var m Mitigator = NewMoPAC(MoPACConfig{
		Geometry: dram.Default(), Mapping: dram.StridedR2SA,
		SampleProb: 0.5, AlertThreshold: 10, Seed: 1,
	}, nil)
	if _, ok := m.(StateInjector); ok {
		t.Error("MoPAC implements StateInjector")
	}
}

func TestMoPACAlertsNearDeratedThreshold(t *testing.T) {
	ath := MoPACDeratedATH(1000, 0.125)
	base := ATHForTRHD(1000)
	if ath >= base {
		t.Fatalf("derated ATH %d must be below deterministic %d", ath, base)
	}
	m := NewMoPAC(MoPACConfig{
		Geometry: dram.Default(), Mapping: dram.StridedR2SA,
		SampleProb: 0.125, AlertThreshold: ath, Seed: 9,
	}, nil)
	row := 4242
	acts := 0
	for !m.WantsALERT() && acts < 4*base {
		m.OnActivate(0, row, 0)
		acts++
	}
	if !m.WantsALERT() {
		t.Fatalf("no ALERT after %d ACTs (ATH %d)", acts, ath)
	}
	// The alert must land below the deterministic budget (security) and
	// above a handful of activations (not trigger-happy).
	if acts > base+base/4 {
		t.Errorf("ALERT after %d ACTs, deterministic budget is %d", acts, base)
	}
	if acts < ath/4 {
		t.Errorf("ALERT after only %d ACTs", acts)
	}
	sink := &CountingSink{}
	m.sink = sink
	m.ServiceALERT(0)
	if sink.Mitigations != 1 {
		t.Errorf("mitigations = %d", sink.Mitigations)
	}
}

func TestMoPACRefreshResets(t *testing.T) {
	g := dram.Default()
	m := NewMoPAC(MoPACConfig{
		Geometry: g, Mapping: dram.StridedR2SA,
		SampleProb: 1, AlertThreshold: 100, Seed: 1,
	}, nil)
	row := g.RowAt(dram.StridedR2SA, 0, 0)
	for i := 0; i < 100; i++ {
		m.OnActivate(0, row, 0)
	}
	if !m.WantsALERT() {
		t.Fatal("p=1 MoPAC should behave deterministically")
	}
	m.OnREF(0, 0)
	if m.WantsALERT() {
		t.Error("refresh of the row must clear the pending alert")
	}
	if m.rows.Get(0, row) != 0 {
		t.Error("counter not reset")
	}
}
