package experiments

import (
	"fmt"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/fault"
	"mirza/internal/replay"
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

// mirzaTRHDs are the TRHDs of the Table VII MIRZA sets that Table 8, Fig
// 11b and Fig 13 read from one shared pass, in Table 8's set order, which
// orders the pass's fault events.
var mirzaTRHDs = []int{2000, 1000, 500}

// mirzaSet is what one MIRZA set saw in a workload's measured pass.
type mirzaSet struct {
	total, warm core.MirzaStats // setTotals after the pass and after its first window
	measured    []replay.Stats  // per sub-channel, the measured windows only
}

// mirzaPass is one workload's shared replay: the mirzaTRHDs sets'
// outcomes by TRHD and their faults, and Fig 11b's PRAC set if it rode along.
type mirzaPass struct {
	sets   map[int]mirzaSet
	faults *fault.Log    // the MIRZA sets' faults, warm-up and measured
	prac   *replayResult // the PRAC set's measured stats and faults, or nil
}

// sharedPass returns workload name's mirzaPass, merging the MIRZA sets'
// faults into the job's log: one warm-up pass over the mirzaTRHDs sets and
// one measured pass over them and prac, if given, run once per Runner
// (single-flight, under the first asker's context, into logs of their own).
func (x *Exec) sharedPass(name string, prac ...[]track.Mitigator) (*mirzaPass, error) {
	p, err := singleFlight(x.r, x.r.mirza, name, func() (*mirzaPass, error) {
		cfgs := make([]core.Config, len(mirzaTRHDs))
		for k, trhd := range mirzaTRHDs {
			cfgs[k], _ = core.ForTRHD(trhd) // Table VII's TRHDs always resolve
		}
		p := &mirzaPass{sets: make(map[int]mirzaSet), faults: fault.NewLog()}
		sets, err := (&Exec{r: x.r, log: p.faults, ctx: x.ctx}).warmMirza(name, cfgs)
		if err != nil {
			return nil, err
		}
		warm := make([]core.MirzaStats, len(sets))
		res, err := (&Exec{r: x.r, log: fault.NewLog(), ctx: x.ctx}).replay(name, replayPass{
			kind: measurePass,
			sets: append(asSets(sets), prac...),
			afterWarm: func() {
				for k, set := range sets {
					warm[k] = setTotals(set)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		for k, trhd := range mirzaTRHDs {
			p.faults.Merge(res[k].faults)
			p.sets[trhd] = mirzaSet{total: setTotals(sets[k]), warm: warm[k], measured: res[k].measured}
		}
		if len(prac) > 0 {
			p.prac = &res[len(sets)]
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	x.log.Merge(p.faults)
	return p, nil
}

// mirzaSets is sharedPass without a PRAC set, as Table 8's and Fig 13's job.
func (x *Exec) mirzaSets(name string) (*mirzaPass, error) { return x.sharedPass(name) }

// Table8 reproduces Table VIII: the mitigation overhead of MINT vs MIRZA
// over each workload's shared MIRZA pass (sharedPass), its unmeasured first
// window included.
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
	perSpec, err := runJobs(r, workloadJobs("table8", specs, (*Exec).mirzaSets))
	if err != nil {
		return nil, err
	}
	for _, trhd := range mirzaTRHDs {
		var sum core.MirzaStats
		for _, p := range perSpec {
			sum.ACTs += p.sets[trhd].total.ACTs
			sum.Escaped += p.sets[trhd].total.Escaped
			sum.Mitigations += p.sets[trhd].total.Mitigations
		}
		t.AddRow(table8Row(trhd, model.WindowForTRHD(trhd), sum)...)
	}
	t.Notes = append(t.Notes,
		"paper: 1/96 vs 1/12016 (125x), 1/48 vs 1/1368 (28.5x), 1/24 vs 1/240 (10x)")
	return t, nil
}

// table8Row formats Table 8's row for one TRHD from the summed MIRZA
// counts. A rate with no events prints 0, and then Difference, MINT's
// rate over MIRZA's, prints "-".
func table8Row(trhd, mintW int, s core.MirzaStats) []string {
	oneIn := func(p float64) string {
		if p == 0 {
			return "0"
		}
		return fmt.Sprintf("1/%.0f", 1/p)
	}
	diff := "-"
	if rate := s.MitigationRate(); rate > 0 {
		diff = fmt.Sprintf("%.1fx", (1.0/float64(mintW))/rate)
	}
	return []string{d(int64(trhd)), fmt.Sprintf("1/%d", mintW), oneIn(s.EscapeProbability()), oneIn(s.MitigationRate()), diff}
}

// Fig11b reproduces Figure 11(b): ALERTs per 100xtREFI per sub-channel for
// MIRZA and PRAC. One job per workload reads the shared pass (sharedPass),
// which carries the PRAC set unless Table 8 or Fig 13 ran it first.
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

	// alertRate converts one set's measured replay stats to the figure's rate.
	alertRate := func(measured []replay.Stats) float64 {
		var alerts int64
		for _, s := range measured {
			alerts += s.Alerts
		}
		return float64(alerts) / float64(len(measured)) / (float64(r.opts.measuredTime()) / float64(tREFI)) * 100
	}

	// Per workload: the three MIRZA configurations, then PRAC.
	rates, err := runJobs(r, workloadJobs("fig11b", specs, func(x *Exec, name string) ([]float64, error) {
		b, err := x.buildPolicy("prac", 1000, nil)
		if err != nil {
			return nil, err
		}
		prac := make([]track.Mitigator, dram.Default().SubChannels)
		for i := range prac {
			prac[i] = b.Factory()(i, track.NopSink{})
		}
		p, err := x.sharedPass(name, prac)
		if err != nil {
			return nil, err
		}
		res := p.prac
		if res != nil {
			x.log.Merge(res.faults)
		} else {
			own, err := x.replay(name, replayPass{kind: measurePass, sets: [][]track.Mitigator{prac}})
			if err != nil {
				return nil, err
			}
			res = &own[0]
		}
		return []float64{alertRate(p.sets[500].measured), alertRate(p.sets[1000].measured),
			alertRate(p.sets[2000].measured), alertRate(res.measured)}, nil
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

// Fig13 reproduces Figure 13: the refresh-power overhead of MINT vs MIRZA,
// over the measured windows of each workload's shared MIRZA pass
// (mirzaSets). One job per workload.
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
	perSpec, err := runJobs(r, workloadJobs("fig13", specs, (*Exec).mirzaSets))
	if err != nil {
		return nil, err
	}
	for _, trhd := range []int{500, 1000, 2000} {
		mintW := model.WindowForTRHD(trhd)
		var acts, mirzaVictims, demandRows int64
		for _, p := range perSpec {
			// MIRZA's mitigations count over the measured windows only,
			// the span demandRows covers.
			set := p.sets[trhd]
			mirzaVictims += (set.total.Mitigations - set.warm.Mitigations) * track.MitigationVictims
			for _, s := range set.measured {
				acts += s.ACTs
				demandRows += s.REFs * int64(g.RowsPerREF) * int64(g.BanksPerSubChannel)
			}
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
