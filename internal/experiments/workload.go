package experiments

import (
	"fmt"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// Table4 reproduces Table IV: the workload characteristics, measured from
// the simulator (MPKI and ACT-PKI from the timing baseline; ACTs/subarray
// per tREFW from the replayer). One job per workload.
func (r *Runner) Table4() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table4",
		Title: "Workload characteristics (measured vs Table IV targets)",
		Columns: []string{"Workload", "MPKI", "ACT-PKI", "Bus Util (%)",
			"ACT/SA mean", "ACT/SA sigma", "paper mean+/-sigma"},
	}
	type cell struct {
		base       *Baseline
		mean, sdev float64
	}
	cells, err := runJobs(r, workloadJobs("table4", specs, func(x *Exec, name string) (cell, error) {
		base, err := x.r.Baseline(name)
		if err != nil {
			return cell{}, err
		}
		mean, sdev, err := x.actsPerSubarray(name)
		return cell{base, mean, sdev}, err
	}))
	if err != nil {
		return nil, err
	}
	var avgMPKI, avgACT, avgBus, avgMean, avgSdev float64
	for i, spec := range specs {
		c := cells[i]
		t.AddRow(spec.Name, f1(c.base.MPKI), f1(c.base.ACTPKI), f1(c.base.BusUtil),
			f1(c.mean), f1(c.sdev),
			fmt.Sprintf("%.0f +/- %.0f", spec.ActSAMean, spec.ActSASdev))
		avgMPKI += c.base.MPKI
		avgACT += c.base.ACTPKI
		avgBus += c.base.BusUtil
		avgMean += c.mean
		avgSdev += c.sdev
	}
	n := float64(len(specs))
	t.AddRow("Average", f1(avgMPKI/n), f1(avgACT/n), f1(avgBus/n),
		f1(avgMean/n), f1(avgSdev/n), "806 +/- 309")
	t.Notes = append(t.Notes, "paper averages: MPKI 24.4, ACT-PKI 18.5, bus util 63.4%")
	return t, nil
}

// actsPerSubarray returns the mean and standard deviation of activations
// per subarray per tREFW (strided R2SA), averaged over banks, from one
// unprotected measured pass.
func (x *Exec) actsPerSubarray(name string) (mean, sdev float64, err error) {
	g := dram.Default()
	counts := make([][]int64, g.SubChannels*g.BanksPerSubChannel)
	for i := range counts {
		counts[i] = make([]int64, g.Subarrays())
	}
	if _, err := x.replay(name, replayPass{kind: measurePass, obs: func(sub, bank, row int, now dram.Time) {
		counts[sub*g.BanksPerSubChannel+bank][g.Subarray(dram.StridedR2SA, row)]++
	}}); err != nil {
		return 0, 0, err
	}
	// The observer saw only the measured windows; normalize to one tREFW.
	scale := float64(dram.DDR5().TREFW) / float64(x.r.opts.measuredTime())
	var agg stats.Running
	for _, bank := range counts {
		for _, c := range bank {
			agg.Add(float64(c) * scale)
		}
	}
	return agg.Mean(), agg.StdDev(), nil
}

// Fig6 reproduces Figure 6: average ACTs per subarray per tREFW for every
// workload against the worst-case single-bank bound. The averages are
// Table 4's ACT/SA mean column; this experiment runs no replay of its own.
func (r *Runner) Fig6() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	t4, err := r.table("table4", (*Runner).Table4)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Avg ACTs/subarray per tREFW vs worst case",
		Columns: []string{"Workload", "ACTs/subarray/tREFW", "paper"},
	}
	for _, spec := range specs {
		mean, err := t4.Cell(spec.Name, "ACT/SA mean")
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.Name, mean, f1(spec.ActSAMean))
	}
	mean, err := t4.Cell("Average", "ACT/SA mean")
	if err != nil {
		return nil, err
	}
	t.AddRow("Average", mean, "806")
	worst := dram.DDR5().MaxACTsPerBankPerTREFW()
	t.AddRow("Worst-case (one subarray)", d(int64(worst)), "621K")
	t.Notes = append(t.Notes, "workloads sit 2-3 orders of magnitude below the worst case, which is what makes CGF effective")
	return t, nil
}

// Table6 reproduces Table VI: the fraction of activations filtered by CGF
// under sequential vs strided row-to-subarray mapping, as FTH varies. One
// job per workload; each job replays the workload once through one MIRZA
// set per (mapping, FTH) pair, counts only unless a fault plan is set.
func (r *Runner) Table6() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	fths := []int{1400, 1500, 1600, 1700}
	mappings := []dram.R2SAMapping{dram.SequentialR2SA, dram.StridedR2SA}
	// One MIRZA set per (mapping, fth), in that order.
	var cfgs []core.Config
	for _, m := range mappings {
		for _, fth := range fths {
			cfg, err := core.ForTRHD(1000)
			if err != nil {
				return nil, err
			}
			cfg.Mapping, cfg.FTH = m, fth
			cfgs = append(cfgs, cfg)
		}
	}

	// One job returns, per (mapping, fth) in enumeration order, the
	// measured windows' counts aggregated over sub-channels.
	perSpec, err := runJobs(r, workloadJobs("table6", specs, func(x *Exec, name string) ([]core.MirzaStats, error) {
		x.r.opts.Logf("table6 %s", name)
		sets, err := mirzaMits(cfgs, x.r.opts.Seed)
		if err != nil {
			return nil, err
		}
		// Only the windows after the first are measured.
		warm := make([]core.MirzaStats, len(sets))
		snapshot := func() {
			for k, set := range sets {
				warm[k] = setTotals(set)
			}
		}
		// Table 6 reads only ACTs and Filtered, which ALERTs never change
		// on fault-free trackers, so without a fault plan nothing services
		// them. Under a plan the queues drain as in hardware: a bit flip
		// can land in the queue or the Region Count Table depending on
		// what servicing left behind.
		countOnly := x.r.opts.Faults.Empty()
		if _, err := x.replay(name, replayPass{kind: measurePass, sets: asSets(sets), afterWarm: snapshot, countOnly: countOnly}); err != nil {
			return nil, err
		}
		out := make([]core.MirzaStats, len(sets))
		for k, set := range sets {
			out[k] = setTotals(set)
			out[k].ACTs -= warm[k].ACTs
			out[k].Filtered -= warm[k].Filtered
		}
		return out, nil
	}))
	if err != nil {
		return nil, err
	}
	// sums[i] aggregates the i-th (mapping, fth) pair over workloads.
	sums := make([]core.MirzaStats, len(mappings)*len(fths))
	for _, cells := range perSpec {
		for i, c := range cells {
			sums[i].ACTs += c.ACTs
			sums[i].Filtered += c.Filtered
		}
	}

	t := &Table{
		ID:    "table6",
		Title: "Effectiveness of coarse-grained filtering (TRHD=1K geometry)",
		Columns: []string{"FTH", "Sequential filtered", "Sequential remaining",
			"Strided filtered", "Strided remaining"},
	}
	pct := func(a core.MirzaStats) (fil, rem float64) {
		if a.ACTs == 0 {
			return 0, 0
		}
		fil = 100 * float64(a.Filtered) / float64(a.ACTs)
		return fil, 100 - fil
	}
	for i, fth := range fths {
		sf, sr := pct(sums[i])           // SequentialR2SA
		tf, tr := pct(sums[len(fths)+i]) // StridedR2SA
		t.AddRow(d(int64(fth)),
			f2(sf)+"%", f2(sr)+"%",
			f2(tf)+"%", f2(tr)+"%")
	}
	t.Notes = append(t.Notes,
		"paper at FTH=1500: sequential 5.55% filtered, strided 99.12% filtered (0.88% remaining)")
	return t, nil
}

// mirzaConfigs returns MIRZA's configuration for each TRHD.
func mirzaConfigs(trhds []int) ([]core.Config, error) {
	cfgs := make([]core.Config, len(trhds))
	for i, trhd := range trhds {
		var err error
		if cfgs[i], err = core.ForTRHD(trhd); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// Table8 reproduces Table VIII: the mitigation overhead of MINT vs MIRZA.
// One job per workload; its three TRHDs share each replay pass.
func (r *Runner) Table8() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	model := security.DefaultMINTModel()
	t := &Table{
		ID:    "table8",
		Title: "Mitigation overhead of MINT vs MIRZA",
		Columns: []string{"TRHD", "MINT (1/W)", "MIRZA escape prob",
			"MIRZA rate", "Difference"},
	}
	trhds := []int{2000, 1000, 500}
	cfgs, err := mirzaConfigs(trhds)
	if err != nil {
		return nil, err
	}
	perSpec, err := runJobs(r, workloadJobs("table8", specs, func(x *Exec, name string) ([]core.MirzaStats, error) {
		sets, _, err := x.replayMirza(name, cfgs, nil)
		if err != nil {
			return nil, err
		}
		out := make([]core.MirzaStats, len(sets))
		for k, set := range sets {
			out[k] = setTotals(set)
		}
		return out, nil
	}))
	if err != nil {
		return nil, err
	}
	for ti, trhd := range trhds {
		var acts, escaped, mitig int64
		for _, cells := range perSpec {
			acts += cells[ti].ACTs
			escaped += cells[ti].Escaped
			mitig += cells[ti].Mitigations
		}
		mintW := model.WindowForTRHD(trhd)
		escape := float64(escaped) / float64(acts)
		rate := float64(mitig) / float64(acts)
		diff := 0.0
		if rate > 0 {
			diff = (1.0 / float64(mintW)) / rate
		}
		t.AddRow(d(int64(trhd)),
			fmt.Sprintf("1/%d", mintW),
			fmt.Sprintf("1/%.0f", 1/escape),
			fmt.Sprintf("1/%.0f", 1/rate),
			fmt.Sprintf("%.1fx", diff))
	}
	t.Notes = append(t.Notes,
		"paper: 1/96 vs 1/12016 (125x), 1/48 vs 1/1368 (28.5x), 1/24 vs 1/240 (10x)")
	return t, nil
}

// Fig11b reproduces Figure 11(b): ALERTs per 100xtREFI per sub-channel for
// MIRZA and PRAC. One job per workload: one warm-up pass primes the three
// MIRZA sets, and one measured pass replays them and a PRAC set.
func (r *Runner) Fig11b() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	tREFI := dram.DDR5().TREFI
	t := &Table{
		ID:      "fig11b",
		Title:   "ALERTs per 100xtREFI (per sub-channel)",
		Columns: []string{"Workload", "MIRZA-500", "MIRZA-1K", "MIRZA-2K", "PRAC"},
	}
	g := dram.Default()
	cfgs, err := mirzaConfigs([]int{500, 1000, 2000})
	if err != nil {
		return nil, err
	}

	// alertRate converts one set's measured replay stats to the figure's rate.
	alertRate := func(res replayResult) float64 {
		var alerts int64
		for _, s := range res.measured {
			alerts += s.Alerts
		}
		return float64(alerts) / float64(len(res.measured)) / (float64(r.opts.measuredTime()) / float64(tREFI)) * 100
	}

	// Per workload: the three MIRZA configurations, then PRAC.
	rates, err := runJobs(r, workloadJobs("fig11b", specs, func(x *Exec, name string) ([]float64, error) {
		warmed, err := x.warmMirza(name, cfgs)
		if err != nil {
			return nil, err
		}
		b, err := x.buildPolicy("prac", 1000, nil)
		if err != nil {
			return nil, err
		}
		prac := make([]track.Mitigator, g.SubChannels)
		for i := range prac {
			prac[i] = b.Factory()(i, track.NopSink{})
		}
		res, err := x.replay(name, replayPass{kind: measurePass, sets: append(asSets(warmed), prac)})
		if err != nil {
			return nil, err
		}
		rates := make([]float64, len(res))
		for k := range res {
			rates[k] = alertRate(res[k])
		}
		return rates, nil
	}))
	if err != nil {
		return nil, err
	}
	avg := make([]float64, 4)
	for si, spec := range specs {
		row := []string{spec.Name}
		for c, rate := range rates[si] {
			avg[c] += rate
			row = append(row, f2(rate))
		}
		t.AddRow(row...)
	}
	n := float64(len(specs))
	t.AddRow("Average", f2(avg[0]/n), f2(avg[1]/n), f2(avg[2]/n), f2(avg[3]/n))
	t.Notes = append(t.Notes, "paper average at TRHD=1K: MIRZA 2.16, PRAC ~0")
	return t, nil
}

// Fig13 reproduces Figure 13: the refresh-power overhead of MINT vs MIRZA.
// One job per workload; its three TRHDs share each replay pass.
func (r *Runner) Fig13() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	model := security.DefaultMINTModel()
	g := dram.Default()
	t := &Table{
		ID:      "fig13",
		Title:   "Refresh power overhead (victim-refresh rows / demand-refresh rows)",
		Columns: []string{"TRHD", "MINT+RFM", "MIRZA", "paper MINT", "paper MIRZA"},
	}
	paperMINT := map[int]string{500: "16.4%", 1000: "8.2%", 2000: "4.1%"}
	trhds := []int{500, 1000, 2000}
	cfgs, err := mirzaConfigs(trhds)
	if err != nil {
		return nil, err
	}
	type counts struct{ acts, mirzaVictims, demandRows int64 }
	perSpec, err := runJobs(r, workloadJobs("fig13", specs, func(x *Exec, name string) ([]counts, error) {
		// Count MIRZA's mitigations over the measured windows only, the
		// span demandRows covers.
		var warm []int64
		sets, res, err := x.replayMirza(name, cfgs, func(sets [][]*core.Mirza) {
			for _, set := range sets {
				warm = append(warm, setTotals(set).Mitigations)
			}
		})
		if err != nil {
			return nil, err
		}
		out := make([]counts, len(sets))
		for k, set := range sets {
			out[k].mirzaVictims = (setTotals(set).Mitigations - warm[k]) * track.MitigationVictims
			for _, s := range res[k].measured {
				out[k].acts += s.ACTs
				out[k].demandRows += s.REFs * int64(g.RowsPerREF) * int64(g.BanksPerSubChannel)
			}
		}
		return out, nil
	}))
	if err != nil {
		return nil, err
	}
	for ti, trhd := range trhds {
		mintW := model.WindowForTRHD(trhd)
		var acts, mirzaVictims, demandRows int64
		for _, cells := range perSpec {
			acts += cells[ti].acts
			mirzaVictims += cells[ti].mirzaVictims
			demandRows += cells[ti].demandRows
		}
		mintVictims := acts / int64(mintW) * track.MitigationVictims
		t.AddRow(d(int64(trhd)),
			fmt.Sprintf("%.1f%%", 100*float64(mintVictims)/float64(demandRows)),
			fmt.Sprintf("%.2f%%", 100*float64(mirzaVictims)/float64(demandRows)),
			paperMINT[trhd],
			"~0.3% at 1K")
	}
	t.Notes = append(t.Notes,
		"MINT+RFM mitigates every W activations (4 victim rows each); MIRZA mitigates only queue drains")
	return t, nil
}
