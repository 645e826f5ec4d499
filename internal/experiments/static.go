package experiments

import (
	"fmt"

	"mirza/internal/areamodel"
	"mirza/internal/attack"
	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/energy"
	"mirza/internal/security"
)

// Table1 reproduces Table I: the DDR5 timing parameters and the PRAC
// overlay.
func (r *Runner) Table1() (*Table, error) {
	base, prac := dram.DDR5(), dram.PRAC()
	t := &Table{
		ID:      "table1",
		Title:   "DRAM timings (DDR5 6000AN) with PRAC overlay",
		Columns: []string{"Parameter", "Description", "Value", "PRAC"},
	}
	row := func(name, desc string, a, b dram.Time) {
		pracCell := ""
		if a != b {
			pracCell = b.String()
		}
		t.AddRow(name, desc, a.String(), pracCell)
	}
	row("tRCD", "time for performing ACT", base.TRCD, prac.TRCD)
	row("tRP", "time to precharge an open row", base.TRP, prac.TRP)
	row("tRAS", "time between activate and precharge", base.TRAS, prac.TRAS)
	row("tRC", "time between successive ACTs", base.TRC, prac.TRC)
	row("tREFW", "refresh period", base.TREFW, prac.TREFW)
	row("tREFI", "time between successive REF cmds", base.TREFI, prac.TREFI)
	row("tRFC", "execution time for REF command", base.TRFC, prac.TRFC)
	t.Notes = append(t.Notes,
		fmt.Sprintf("ALERT: %v prologue + %v stall = %v total", base.ABOPrologue, base.ABOStall, base.ALERTLatency()),
		fmt.Sprintf("bounded-refresh mitigation: %v per aggressor row", base.TMitigation))
	return t, nil
}

// Table2 reproduces Table II: the TRHD tolerated by proactive MINT and
// Mithril as the mitigation rate varies, with refresh cannibalization.
func (r *Runner) Table2() (*Table, error) {
	tm := dram.DDR5()
	mint := security.DefaultMINTModel()
	mith := security.DefaultMithrilModel()
	t := &Table{
		ID:    "table2",
		Title: "TRHD tolerated by MINT and Mithril vs mitigation rate",
		Columns: []string{"Mitigation Rate", "Refresh Cannibalization",
			"Window W", "MINT (1-entry/bank)", "Mithril (2K-entry/bank)"},
	}
	for _, refs := range []int{1, 2, 4, 8} {
		w := security.WindowPerREFs(tm, refs)
		t.AddRow(
			fmt.Sprintf("1 aggressor per %d REF", refs),
			fmt.Sprintf("%.1f%%", 100*energy.Cannibalization(tm, float64(refs))),
			d(int64(w)),
			d(int64(mint.ToleratedTRHD(w))),
			d(int64(mith.ToleratedTRHD(w))),
		)
	}
	t.Notes = append(t.Notes,
		"paper: MINT 1.5K/2.9K/5.8K/11.6K; Mithril 1K/1.7K/2.9K/5.4K; cannibalization 68/34/17/8.5%")
	return t, nil
}

// Table7 reproduces Table VII: the MIRZA configurations per target TRHD,
// with the SRAM budget and the analytic safety bound.
func (r *Runner) Table7() (*Table, error) {
	model := security.DefaultMINTModel()
	t := &Table{
		ID:    "table7",
		Title: "MIRZA configurations for target TRHD",
		Columns: []string{"TRHD", "FTH", "MINT-W", "Regions/Bank",
			"SRAM/Bank (B)", "SafeTRHD (model)"},
	}
	for _, trhd := range []int{2000, 1000, 500} {
		cfg, err := core.ForTRHD(trhd)
		if err != nil {
			return nil, err
		}
		t.AddRow(d(int64(trhd)), d(int64(cfg.FTH)), d(int64(cfg.MINTWindow)),
			d(int64(cfg.Regions)), d(int64(cfg.SRAMBytesPerBank())),
			d(int64(security.SafeTRHD(cfg, model))))
	}
	t.Notes = append(t.Notes, "paper SRAM/bank: 116/196/340 bytes")
	return t, nil
}

// Table10 reproduces Table X: relative area of MIRZA vs PRAC per subarray.
func (r *Runner) Table10() (*Table, error) {
	t := &Table{
		ID:      "table10",
		Title:   "Relative area of MIRZA and PRAC (per subarray)",
		Columns: []string{"TRHD", "MIRZA (SRAM bits/SA)", "PRAC (DRAM bits/SA)", "PRAC/MIRZA area"},
	}
	model := security.DefaultMINTModel()
	g := dram.Default()
	cases := []struct {
		trhd         int
		regionsPerSA int
		window       int
	}{
		{1000, 1, 12},
		{500, 2, 8},
		{250, 4, 4},
	}
	for _, c := range cases {
		fth := security.FTHForTRHD(c.trhd, c.window, core.DefaultQueueSize, core.DefaultQTH, model)
		// Use the paper's preset FTH where one exists (it fixes the
		// counter width the paper reports).
		if cfg, err := core.ForTRHD(c.trhd); err == nil {
			fth = cfg.FTH
		}
		bits := areamodel.CounterBits(fth+1) * c.regionsPerSA
		cmp := areamodel.CompareSubarray(c.trhd, bits, g.SubarrayRows)
		t.AddRow(d(int64(c.trhd)),
			fmt.Sprintf("%d-bit SRAM", cmp.MIRZASRAMBits),
			fmt.Sprintf("%d-bit DRAM", cmp.PRACDRAMBits),
			fmt.Sprintf("%.1fx", cmp.AreaRatio))
	}
	mirzaSRAM, err := sramBytesPerBank(1000)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: 45x / 22.5x / 11.2x more area for PRAC",
		fmt.Sprintf("Mithril comparison: 2K entries x 28b = %d bytes/bank vs MIRZA %d bytes/bank",
			areamodel.MithrilBytesPerBank(2048), mirzaSRAM))
	return t, nil
}

// sramBytesPerBank returns MIRZA's SRAM budget for a preset TRHD,
// propagating (rather than panicking on) an unknown threshold so the
// hardened runner's panic recovery stays a backstop, not the handler.
func sramBytesPerBank(trhd int) (int, error) {
	cfg, err := core.ForTRHD(trhd)
	if err != nil {
		return 0, fmt.Errorf("experiments: SRAM budget for TRHD=%d: %w", trhd, err)
	}
	return cfg.SRAMBytesPerBank(), nil
}

// Table11 reproduces Table XI (and the Figure 12 kernel): relative ACT
// throughput and slowdown of a benign application under the RCT-priming
// performance attack.
func (r *Runner) Table11() (*Table, error) {
	m := attack.NewPerfAttackModel(dram.DDR5())
	t := &Table{
		ID:      "table11",
		Title:   "Relative ACT throughput and slowdown under performance attack",
		Columns: []string{"MINT-W", "ACT-Throughput", "Slowdown"},
	}
	for _, w := range []int{16, 12, 8} {
		t.AddRow(d(int64(w)),
			fmt.Sprintf("%.1f%%", 100*m.RelativeThroughput(w)),
			fmt.Sprintf("%.2fx", m.Slowdown(w)))
	}
	t.Notes = append(t.Notes,
		"paper: 63.4%/55.9%/44.5% and 1.6x/1.8x/2.25x",
		fmt.Sprintf("ALERT-saturated bound: %.1fx; RCT priming costs %.2f%% of a tREFW at FTH=1500",
			m.AlertOnlySlowdown(), 100*attack.PrimingFraction(dram.DDR5(), 1500)))
	return t, nil
}

// Table12 reproduces Table XII: storage and mitigation overhead of TRR,
// MINT and MIRZA at the current threshold of 4.8K.
func (r *Runner) Table12() (*Table, error) {
	tm := dram.DDR5()
	mirzaCfg, err := core.ForTRHD(4800)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table12",
		Title:   "Storage and mitigation overhead at TRHD=4.8K",
		Columns: []string{"Tracker", "Storage (per bank)", "Secure Tracking?", "Refresh Cannibalization"},
	}
	t.AddRow("TRR",
		fmt.Sprintf("%d bytes", areamodel.TRRBytesPerBank(28)),
		"No",
		fmt.Sprintf("%.0f%%", 100*energy.Cannibalization(tm, 4)))
	t.AddRow("MINT",
		fmt.Sprintf("%d bytes", areamodel.MINTBytesPerBank(6, 17)),
		"Yes",
		fmt.Sprintf("%.0f%%", 100*energy.Cannibalization(tm, 3)))
	t.AddRow("MIRZA",
		fmt.Sprintf("%d bytes", mirzaCfg.SRAMBytesPerBank()),
		"Yes",
		"0%")
	t.Notes = append(t.Notes,
		"paper: TRR 84B/No/17%, MINT 20B/Yes/23%, MIRZA 72B/Yes/0%",
		"TRR insecurity and MINT/MIRZA security are demonstrated by the attack-simulation tests")
	return t, nil
}

// Fig1c summarizes the headline comparison of Figure 1(c): mitigation rate
// vs MINT and area vs PRAC at TRHD=1K. The mitigation reduction is Table
// 8's TRHD=1000 Difference cell.
func (r *Runner) Fig1c() (*Table, error) {
	t8, err := r.table("table8", (*Runner).Table8)
	if err != nil {
		return nil, err
	}
	fewer, err := t8.Cell("1000", "Difference")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig1c",
		Title:   "MIRZA headline comparison (TRHD=1K)",
		Columns: []string{"Metric", "Value", "Paper"},
	}
	t.AddRow("Mitigations vs MINT", fewer, "28.5x fewer")
	cfg, _ := core.ForTRHD(1000)
	bits := areamodel.CounterBits(cfg.FTH + 1)
	cmp := areamodel.CompareSubarray(1000, bits, dram.Default().SubarrayRows)
	t.AddRow("Area vs PRAC", fmt.Sprintf("%.0fx lower", cmp.AreaRatio), "45x lower")
	t.AddRow("SRAM per bank", fmt.Sprintf("%d bytes", cfg.SRAMBytesPerBank()), "196 bytes")
	sp := energy.DefaultSRAMPower()
	t.AddRow("SRAM power", fmt.Sprintf("%.2f%% of chip power", 100*sp.RelativeOverhead()), "~0.25%")
	return t, nil
}
