package experiments

import (
	"fmt"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// probeSet is a passive fan-out Mitigator: it feeds every probe MIRZA
// instance the same ACT/REF stream but never requests ALERTs (probes'
// queues are irrelevant; only their filtering statistics are read).
type probeSet struct {
	probes []*core.Mirza
}

var _ track.Mitigator = (*probeSet)(nil)

func (p *probeSet) Name() string { return "probe-set" }
func (p *probeSet) OnActivate(bank, row int, now dram.Time) {
	for _, m := range p.probes {
		m.OnActivate(bank, row, now)
	}
}
func (p *probeSet) WantsALERT() bool { return false }
func (p *probeSet) OnREF(refIndex int, now dram.Time) {
	for _, m := range p.probes {
		m.OnREF(refIndex, now)
	}
}
func (p *probeSet) OnRFM(bank int, now dram.Time) {}
func (p *probeSet) ServiceALERT(now dram.Time)    {}

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
	js := make([]job[cell], 0, len(specs))
	for _, spec := range specs {
		spec := spec
		js = append(js, job[cell]{
			id: "table4/" + spec.Name,
			run: func(x *Exec) (cell, error) {
				base, err := x.Baseline(spec.Name)
				if err != nil {
					return cell{}, err
				}
				mean, sdev, err := x.actsPerSubarray(spec.Name)
				if err != nil {
					return cell{}, err
				}
				return cell{base, mean, sdev}, nil
			},
		})
	}
	cells, err := runJobs(r, js)
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

// actsPerSubarray replays the workload and returns the mean and standard
// deviation of activations per subarray per tREFW (strided R2SA), averaged
// over banks.
func (x *Exec) actsPerSubarray(name string) (mean, sdev float64, err error) {
	g := dram.Default()
	counts := make([][]int64, g.SubChannels*g.BanksPerSubChannel)
	for i := range counts {
		counts[i] = make([]int64, g.Subarrays())
	}
	res, err := x.replay(name, replayPass{kind: measurePass, obs: func(sub, bank, row int, now dram.Time) {
		counts[sub*g.BanksPerSubChannel+bank][g.Subarray(dram.StridedR2SA, row)]++
	}})
	if err != nil {
		return 0, 0, err
	}
	// The observer saw only the measured windows; normalize to one tREFW.
	scale := float64(dram.DDR5().TREFW) / float64(res.time)
	var agg stats.Running
	for _, bank := range counts {
		for _, c := range bank {
			agg.Add(float64(c) * scale)
		}
	}
	return agg.Mean(), agg.StdDev(), nil
}

// Fig6 reproduces Figure 6: average ACTs per subarray per tREFW for every
// workload against the worst-case single-bank bound. One job per workload.
func (r *Runner) Fig6() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Avg ACTs/subarray per tREFW vs worst case",
		Columns: []string{"Workload", "ACTs/subarray/tREFW", "paper"},
	}
	js := make([]job[float64], 0, len(specs))
	for _, spec := range specs {
		spec := spec
		js = append(js, job[float64]{
			id: "fig6/" + spec.Name,
			run: func(x *Exec) (float64, error) {
				mean, _, err := x.actsPerSubarray(spec.Name)
				return mean, err
			},
		})
	}
	means, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}
	var sum float64
	for i, spec := range specs {
		sum += means[i]
		t.AddRow(spec.Name, f1(means[i]), f1(spec.ActSAMean))
	}
	t.AddRow("Average", f1(sum/float64(len(specs))), "806")
	worst := dram.DDR5().MaxACTsPerBankPerTREFW()
	t.AddRow("Worst-case (one subarray)", d(int64(worst)), "621K")
	t.Notes = append(t.Notes, "workloads sit 2-3 orders of magnitude below the worst case, which is what makes CGF effective")
	return t, nil
}

// Table6 reproduces Table VI: the fraction of activations filtered by CGF
// under sequential vs strided row-to-subarray mapping, as FTH varies. One
// job per workload; each job replays the workload once through a probe
// fan-out covering every (mapping, FTH) pair.
func (r *Runner) Table6() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	fths := []int{1400, 1500, 1600, 1700}
	mappings := []dram.R2SAMapping{dram.SequentialR2SA, dram.StridedR2SA}
	g := dram.Default()

	// One job returns, per (mapping, fth) in enumeration order, the
	// (acts, filtered) deltas aggregated over sub-channels.
	type agg struct{ acts, filtered int64 }
	js := make([]job[[]agg], 0, len(specs))
	for _, spec := range specs {
		spec := spec
		js = append(js, job[[]agg]{
			id: "table6/" + spec.Name,
			run: func(x *Exec) ([]agg, error) {
				x.r.opts.Logf("table6 %s", spec.Name)
				// probes[sub] holds sub-channel sub's probes in (mapping, fth) order.
				probes := make([][]*core.Mirza, g.SubChannels)
				mits := make([]track.Mitigator, g.SubChannels)
				for sub := range probes {
					for _, m := range mappings {
						for _, fth := range fths {
							cfg, err := core.ForTRHD(1000)
							if err != nil {
								return nil, err
							}
							cfg.Mapping = m
							cfg.FTH = fth
							cfg.Seed = x.r.opts.Seed + uint64(sub)
							probe, err := core.New(cfg, track.NopSink{})
							if err != nil {
								return nil, fmt.Errorf("table6 probe (FTH=%d): %w", fth, err)
							}
							probes[sub] = append(probes[sub], probe)
						}
					}
					mits[sub] = &probeSet{probes: probes[sub]}
				}
				// Only the windows after the first are measured.
				warm := make([][]core.MirzaStats, len(probes))
				snapshot := func() {
					for sub, ps := range probes {
						for _, p := range ps {
							warm[sub] = append(warm[sub], p.Stats)
						}
					}
				}
				if _, err := x.replay(spec.Name, replayPass{kind: probePass, mits: mits, afterWarm: snapshot}); err != nil {
					return nil, err
				}
				out := make([]agg, len(mappings)*len(fths))
				for sub, ps := range probes {
					for i, p := range ps {
						out[i].acts += p.Stats.ACTs - warm[sub][i].ACTs
						out[i].filtered += p.Stats.Filtered - warm[sub][i].Filtered
					}
				}
				return out, nil
			},
		})
	}
	perSpec, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}
	// sums[i] aggregates the i-th (mapping, fth) pair over workloads.
	sums := make([]agg, len(mappings)*len(fths))
	for _, cells := range perSpec {
		for i, c := range cells {
			sums[i].acts += c.acts
			sums[i].filtered += c.filtered
		}
	}

	t := &Table{
		ID:    "table6",
		Title: "Effectiveness of coarse-grained filtering (TRHD=1K geometry)",
		Columns: []string{"FTH", "Sequential filtered", "Sequential remaining",
			"Strided filtered", "Strided remaining"},
	}
	pct := func(a agg) (fil, rem float64) {
		if a.acts == 0 {
			return 0, 0
		}
		fil = 100 * float64(a.filtered) / float64(a.acts)
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

// Table8 reproduces Table VIII: the mitigation overhead of MINT vs MIRZA.
// One job per (TRHD, workload) replay.
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
	type counts struct{ acts, escaped, mitig int64 }
	var js []job[counts]
	for _, trhd := range trhds {
		cfg, err := core.ForTRHD(trhd)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			cfg, spec := cfg, spec
			js = append(js, job[counts]{
				id: fmt.Sprintf("table8/trhd=%d/%s", trhd, spec.Name),
				run: func(x *Exec) (counts, error) {
					mits, _, err := x.replayMirza(spec.Name, cfg, nil)
					var c counts
					for _, m := range mits {
						c.acts += m.Stats.ACTs
						c.escaped += m.Stats.Escaped
						c.mitig += m.Stats.Mitigations
					}
					return c, err
				},
			})
		}
	}
	cells, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}
	for ti, trhd := range trhds {
		var acts, escaped, mitig int64
		for si := range specs {
			c := cells[ti*len(specs)+si]
			acts += c.acts
			escaped += c.escaped
			mitig += c.mitig
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
// MIRZA and PRAC. One job per (workload, tracker-config) replay.
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
	trhds := []int{500, 1000, 2000}

	// alertRate converts measured replay stats to the figure's rate.
	alertRate := func(res replayResult) float64 {
		var alerts int64
		for _, s := range res.measured {
			alerts += s.Alerts
		}
		return float64(alerts) / float64(len(res.measured)) / (float64(res.time) / float64(tREFI)) * 100
	}

	// Per workload: three MIRZA configurations then PRAC, in the order
	// the sequential engine ran them.
	const perSpec = 4
	var js []job[float64]
	for _, spec := range specs {
		spec := spec
		for _, trhd := range trhds {
			trhd := trhd
			js = append(js, job[float64]{
				id: fmt.Sprintf("fig11b/%s/mirza-%d", spec.Name, trhd),
				run: func(x *Exec) (float64, error) {
					cfg, _ := core.ForTRHD(trhd)
					_, res, err := x.replayMirza(spec.Name, cfg, nil)
					if err != nil {
						return 0, err
					}
					return alertRate(res), nil
				},
			})
		}
		js = append(js, job[float64]{
			id: "fig11b/" + spec.Name + "/prac",
			run: func(x *Exec) (float64, error) {
				b, err := x.buildPolicy("prac", 1000, nil)
				if err != nil {
					return 0, err
				}
				pracMits := make([]track.Mitigator, g.SubChannels)
				for j := range pracMits {
					pracMits[j] = b.Factory()(j, track.NopSink{})
				}
				res, err := x.replay(spec.Name, replayPass{kind: measurePass, mits: pracMits})
				if err != nil {
					return 0, err
				}
				return alertRate(res), nil
			},
		})
	}
	rates, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}
	avg := make([]float64, perSpec)
	for si, spec := range specs {
		row := []string{spec.Name}
		for c := 0; c < perSpec; c++ {
			rate := rates[si*perSpec+c]
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
// One job per (TRHD, workload) replay.
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
	type counts struct{ acts, mirzaVictims, demandRows int64 }
	var js []job[counts]
	for _, trhd := range trhds {
		cfg, _ := core.ForTRHD(trhd)
		for _, spec := range specs {
			cfg, spec := cfg, spec
			js = append(js, job[counts]{
				id: fmt.Sprintf("fig13/trhd=%d/%s", trhd, spec.Name),
				run: func(x *Exec) (counts, error) {
					// Count MIRZA's mitigations over the measured windows
					// only, the span demandRows covers.
					var warm []int64
					mits, res, err := x.replayMirza(spec.Name, cfg, func(ms []*core.Mirza) {
						for _, m := range ms {
							warm = append(warm, m.Stats.Mitigations)
						}
					})
					if err != nil {
						return counts{}, err
					}
					var c counts
					for i, m := range mits {
						c.mirzaVictims += (m.Stats.Mitigations - warm[i]) * track.MitigationVictims
					}
					for _, s := range res.measured {
						c.acts += s.ACTs
						c.demandRows += s.REFs * int64(g.RowsPerREF) * int64(g.BanksPerSubChannel)
					}
					return c, nil
				},
			})
		}
	}
	cells, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}
	for ti, trhd := range trhds {
		mintW := model.WindowForTRHD(trhd)
		var acts, mirzaVictims, demandRows int64
		for si := range specs {
			c := cells[ti*len(specs)+si]
			acts += c.acts
			mirzaVictims += c.mirzaVictims
			demandRows += c.demandRows
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
