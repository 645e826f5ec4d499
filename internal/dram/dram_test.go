package dram

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestDDR5Timings(t *testing.T) {
	tm := DDR5()
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table I values.
	cases := []struct {
		name string
		got  Time
		want Time
	}{
		{"tRCD", tm.TRCD, 14 * Nanosecond},
		{"tRP", tm.TRP, 14 * Nanosecond},
		{"tRAS", tm.TRAS, 32 * Nanosecond},
		{"tRC", tm.TRC, 46 * Nanosecond},
		{"tREFW", tm.TREFW, 32 * Millisecond},
		{"tREFI", tm.TREFI, 3900 * Nanosecond},
		{"tRFC", tm.TRFC, 410 * Nanosecond},
		{"tWR", tm.TWR, 30 * Nanosecond},
		{"tRTP", tm.TRTP, 12 * Nanosecond},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestPRACTimingOverlay(t *testing.T) {
	tm := PRAC()
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if tm.TRP != 36*Nanosecond {
		t.Errorf("PRAC tRP = %v, want 36ns", tm.TRP)
	}
	if tm.TRAS != 16*Nanosecond {
		t.Errorf("PRAC tRAS = %v, want 16ns", tm.TRAS)
	}
	if tm.TRC != 52*Nanosecond {
		t.Errorf("PRAC tRC = %v, want 52ns", tm.TRC)
	}
	// Non-overlaid parameters unchanged.
	if tm.TREFI != DDR5().TREFI || tm.TRFC != DDR5().TRFC {
		t.Error("PRAC overlay must not change refresh timings")
	}
}

// TestTimingValidate exercises every rejection case of Timing.Validate —
// the auditor assumes a validated timing set, so each inconsistency a user
// could plausibly construct must be refused with an error naming the
// parameters involved.
func TestTimingValidate(t *testing.T) {
	mutate := func(f func(*Timing)) Timing {
		tm := DDR5()
		f(&tm)
		return tm
	}
	cases := []struct {
		name    string
		timing  Timing
		wantErr string // "" = must validate
	}{
		{"ddr5-defaults", DDR5(), ""},
		{"prac-overlay", PRAC(), ""},
		{"zero-trcd", mutate(func(tm *Timing) { tm.TRCD = 0 }), "core timings"},
		{"negative-trp", mutate(func(tm *Timing) { tm.TRP = -Nanosecond }), "core timings"},
		{"zero-trrd", mutate(func(tm *Timing) { tm.TRRD = 0 }), "ACT pacing"},
		{"zero-tfaw", mutate(func(tm *Timing) { tm.TFAW = 0 }), "ACT pacing"},
		{"tfaw-below-trrd", mutate(func(tm *Timing) { tm.TFAW = tm.TRRD - 1 }), "tFAW"},
		{"tras-below-trcd", mutate(func(tm *Timing) { tm.TRAS = tm.TRCD - 1 }), "tRAS"},
		{"trc-below-tras", mutate(func(tm *Timing) { tm.TRC = tm.TRAS - 1 }), "tRC"},
		{"zero-tcl", mutate(func(tm *Timing) { tm.TCL = 0 }), "column timings"},
		{"zero-trtp", mutate(func(tm *Timing) { tm.TRTP = 0 }), "column timings"},
		{"trtp-above-tras", mutate(func(tm *Timing) { tm.TRTP = tm.TRAS + 1 }), "tRTP"},
		{"zero-trfc", mutate(func(tm *Timing) { tm.TRFC = 0 }), "refresh timings"},
		{"trefi-below-trfc", mutate(func(tm *Timing) { tm.TREFI = tm.TRFC }), "tREFI"},
		{"trefw-below-trefi", mutate(func(tm *Timing) { tm.TREFW = tm.TREFI - 1 }), "tREFW"},
		{"negative-abo", mutate(func(tm *Timing) { tm.ABOStall = -1 }), "ABO"},
		// 32ms / 7ms = 4.57 REF intervals: refresh accounting nonsense.
		{"fractional-ref-count", mutate(func(tm *Timing) { tm.TREFI = 7 * Millisecond }), "whole number"},
		// The Table I remainder (32ms % 3.9us = 500ns) must stay inside the
		// 0.1%-of-window tolerance; a tREFI that exactly divides must too.
		{"exact-ref-count", mutate(func(tm *Timing) { tm.TREFI = 4 * Millisecond }), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.timing.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

func TestDerivedTimingQuantities(t *testing.T) {
	tm := DDR5()
	if got := tm.REFsPerTREFW(); got != 8205 && got != 8192 {
		// 32ms / 3.9us = 8205 REF slots; the canonical DDR5 figure is 8192.
		t.Errorf("REFsPerTREFW = %d", got)
	}
	if got := tm.MaxACTsPerTREFI(); got != 75 {
		t.Errorf("MaxACTsPerTREFI = %d, want 75 (Section II.F)", got)
	}
	// Worst case per bank per tREFW: ~621K (Figure 6).
	if got := tm.MaxACTsPerBankPerTREFW(); got < 590_000 || got > 640_000 {
		t.Errorf("MaxACTsPerBankPerTREFW = %d, want ~621K", got)
	}
	// tFAW-limited channel budget: ~8.8M/tREFW (footnote 2).
	if got := tm.MaxACTsPerChannelPerTREFW(); got < 8_000_000 || got > 10_500_000 {
		t.Errorf("MaxACTsPerChannelPerTREFW = %d, want ~8.8-9.8M", got)
	}
	if tm.ALERTLatency() != 530*Nanosecond {
		t.Errorf("ALERT latency = %v, want 530ns", tm.ALERTLatency())
	}
}

func TestGeometryDefaults(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Banks() != 64 {
		t.Errorf("Banks = %d, want 64 (32 x 2 sub-channels)", g.Banks())
	}
	if g.Subarrays() != 128 {
		t.Errorf("Subarrays = %d, want 128", g.Subarrays())
	}
	if g.CapacityBytes() != 32<<30 {
		t.Errorf("Capacity = %d, want 32GB", g.CapacityBytes())
	}
	if g.REFsPerSubarray() != 64 {
		t.Errorf("REFsPerSubarray = %d, want 64 (Appendix B)", g.REFsPerSubarray())
	}
	if g.REFsPerWindow() != 8192 {
		t.Errorf("REFsPerWindow = %d, want 8192", g.REFsPerWindow())
	}
}

// TestGeometryValidateRejectsNonPositive sets each field in turn to zero and
// to a negative value: Validate must return an error naming the field, never
// panic with a division by zero.
func TestGeometryValidateRejectsNonPositive(t *testing.T) {
	fields := []struct {
		name string
		f    func(*Geometry) *int
	}{
		{"SubChannels", func(g *Geometry) *int { return &g.SubChannels }},
		{"BanksPerSubChannel", func(g *Geometry) *int { return &g.BanksPerSubChannel }},
		{"RowsPerBank", func(g *Geometry) *int { return &g.RowsPerBank }},
		{"RowBytes", func(g *Geometry) *int { return &g.RowBytes }},
		{"LineBytes", func(g *Geometry) *int { return &g.LineBytes }},
		{"MOPLines", func(g *Geometry) *int { return &g.MOPLines }},
		{"SubarrayRows", func(g *Geometry) *int { return &g.SubarrayRows }},
		{"RowsPerREF", func(g *Geometry) *int { return &g.RowsPerREF }},
	}
	for _, f := range fields {
		for _, v := range []int{0, -1} {
			t.Run(fmt.Sprintf("%s=%d", f.name, v), func(t *testing.T) {
				g := Default()
				*f.f(&g) = v
				err := g.Validate()
				if err == nil || !strings.Contains(err.Error(), f.name) {
					t.Fatalf("Validate() = %v, want an error naming %s", err, f.name)
				}
			})
		}
	}
}

func TestDecomposeComposeRoundTrip(t *testing.T) {
	g := Default()
	f := func(raw uint64) bool {
		phys := raw % g.CapacityBytes()
		phys -= phys % uint64(g.LineBytes)
		a := g.Decompose(phys)
		if a.SubChannel < 0 || a.SubChannel >= g.SubChannels ||
			a.Bank < 0 || a.Bank >= g.BanksPerSubChannel ||
			a.Row < 0 || a.Row >= g.RowsPerBank ||
			a.Col < 0 || a.Col >= g.LinesPerRow() {
			return false
		}
		return g.Compose(a) == phys
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMOP4Layout(t *testing.T) {
	g := Default()
	// Four consecutive lines share a row-buffer visit (same sub-channel,
	// bank, row), per the MOP4 policy.
	base := g.Decompose(0)
	for i := 1; i < 4; i++ {
		a := g.Decompose(uint64(i * g.LineBytes))
		if a.SubChannel != base.SubChannel || a.Bank != base.Bank || a.Row != base.Row {
			t.Fatalf("line %d left the MOP group: %+v vs %+v", i, a, base)
		}
		if a.Col != base.Col+i {
			t.Fatalf("line %d col = %d, want %d", i, a.Col, base.Col+i)
		}
	}
	// The fifth line moves to the other sub-channel.
	a := g.Decompose(uint64(4 * g.LineBytes))
	if a.SubChannel == base.SubChannel {
		t.Errorf("line 4 should change sub-channel: %+v", a)
	}
}

func TestRowToSubarrayMappings(t *testing.T) {
	g := Default()
	// Sequential: consecutive rows share a subarray.
	if g.Subarray(SequentialR2SA, 0) != g.Subarray(SequentialR2SA, 1) {
		t.Error("sequential mapping should keep consecutive rows together")
	}
	if g.Subarray(SequentialR2SA, 1023) != 0 || g.Subarray(SequentialR2SA, 1024) != 1 {
		t.Error("sequential subarray boundary wrong")
	}
	// Strided: consecutive rows land in different subarrays; every 128th
	// row shares one (Section IV.D).
	if g.Subarray(StridedR2SA, 0) == g.Subarray(StridedR2SA, 1) {
		t.Error("strided mapping should separate consecutive rows")
	}
	if g.Subarray(StridedR2SA, 0) != g.Subarray(StridedR2SA, 128) {
		t.Error("strided mapping: rows 0 and 128 should share a subarray")
	}
}

func TestRowAtInverse(t *testing.T) {
	g := Default()
	for _, m := range []R2SAMapping{SequentialR2SA, StridedR2SA} {
		for _, row := range []int{0, 1, 127, 128, 1023, 1024, 131071, 70000} {
			sa := g.Subarray(m, row)
			idx := g.PhysicalIndex(m, row)
			if got := g.RowAt(m, sa, idx); got != row {
				t.Errorf("%v: RowAt(Subarray, PhysicalIndex) of %d = %d", m, row, got)
			}
		}
	}
}

func TestPhysicalNeighbors(t *testing.T) {
	g := Default()
	// Interior row has two neighbors at each distance.
	row := g.RowAt(StridedR2SA, 5, 100)
	n1 := g.PhysicalNeighbors(StridedR2SA, row, 1)
	if len(n1) != 2 {
		t.Fatalf("interior row: %d neighbors, want 2", len(n1))
	}
	for _, n := range n1 {
		if g.Subarray(StridedR2SA, n) != 5 {
			t.Errorf("neighbor %d escaped the subarray", n)
		}
		d := g.PhysicalIndex(StridedR2SA, n) - 100
		if d != 1 && d != -1 {
			t.Errorf("neighbor at distance %d, want +/-1", d)
		}
	}
	// Edge row (index 0) has one neighbor.
	edge := g.RowAt(StridedR2SA, 5, 0)
	if n := g.PhysicalNeighbors(StridedR2SA, edge, 1); len(n) != 1 {
		t.Errorf("edge row: %d neighbors, want 1", len(n))
	}
}

func TestRefreshTargetWalk(t *testing.T) {
	g := Default()
	// The full window of REFs must cover every physical row exactly once.
	seen := make(map[[2]int]bool)
	for k := 0; k < g.REFsPerWindow(); k++ {
		tgt := g.RefreshTargetOf(k)
		if tgt.Subarray < 0 || tgt.Subarray >= g.Subarrays() {
			t.Fatalf("REF %d: subarray %d out of range", k, tgt.Subarray)
		}
		for idx := tgt.FirstIdx; idx <= tgt.LastIdx; idx++ {
			key := [2]int{tgt.Subarray, idx}
			if seen[key] {
				t.Fatalf("REF %d refreshes (%d,%d) twice", k, tgt.Subarray, idx)
			}
			seen[key] = true
		}
	}
	if len(seen) != g.RowsPerBank {
		t.Fatalf("refresh walk covered %d rows, want %d", len(seen), g.RowsPerBank)
	}
	// Boundary flags.
	first := g.RefreshTargetOf(0)
	if !first.FirstOfSA || first.LastOfSA {
		t.Errorf("REF 0 flags wrong: %+v", first)
	}
	last := g.RefreshTargetOf(g.REFsPerSubarray() - 1)
	if !last.LastOfSA || last.FirstOfSA {
		t.Errorf("last REF of subarray flags wrong: %+v", last)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500 * Picosecond:  "500ps",
		14 * Nanosecond:   "14.000ns",
		32 * Millisecond:  "32.000ms",
		3900 * Nanosecond: "3.900us",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}
