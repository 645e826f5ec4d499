package experiments

import (
	"fmt"

	"mirza/internal/attack"
	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register every mitigation policy
)

// buildPolicy resolves a registered mitigation policy for this run's seed.
// Table-I provisioning (windows, thresholds, timing, RFM BAT) lives in the
// policy's registry Descriptor, not here.
func (x *Exec) buildPolicy(policy string, trhd int, overrides map[string]string) (*track.Built, error) {
	return track.Build(policy, overrides, track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     trhd,
		Seed:     x.r.opts.Seed,
	})
}

// runPolicy measures one registered policy's slowdown for one workload at a
// target TRHD, resolving construction, timing and RFM cadence through the
// mitigation registry.
func (x *Exec) runPolicy(name, policy string, trhd int) (slowdown float64, res *timingResult, err error) {
	base, err := x.r.Baseline(name)
	if err != nil {
		return 0, nil, err
	}
	b, err := x.buildPolicy(policy, trhd, nil)
	if err != nil {
		return 0, nil, err
	}
	res, err = x.runTiming(base, b.Timing(), b.RFMBAT(), b.Factory())
	if err != nil {
		return 0, nil, err
	}
	return slowdownVs(base, res), res, nil
}

// runMINTRFM measures the MINT+RFM slowdown and refresh power for one
// workload at a target TRHD.
func (x *Exec) runMINTRFM(name string, trhd int) (slowdown, refreshPower float64, err error) {
	sd, res, err := x.runPolicy(name, "mint-rfm", trhd)
	if err != nil {
		return 0, 0, err
	}
	return sd, 100 * float64(res.Stats.VictimRows) / float64(res.Stats.DemandRefreshRows), nil
}

// runPRAC measures the PRAC+ABO slowdown for one workload.
func (x *Exec) runPRAC(name string, trhd int) (slowdown float64, err error) {
	sd, _, err := x.runPolicy(name, "prac", trhd)
	return sd, err
}

// runMIRZA measures the MIRZA slowdown for one workload, starting the
// timing run from a set warmed by warmMirza.
func (x *Exec) runMIRZA(name string, warmed []*core.Mirza) (float64, error) {
	base, err := x.r.Baseline(name)
	if err != nil {
		return 0, err
	}
	// The channel counts mitigations through its own sink, which the
	// warmed instances do not have; they count via their stats instead.
	res, err := x.runTiming(base, dram.DDR5(), 0, func(sub int, sink track.Sink) track.Mitigator { return warmed[sub] })
	if err != nil {
		return 0, err
	}
	return slowdownVs(base, res), nil
}

// Fig3 reproduces Figure 3: slowdown and refresh power overhead of the
// proactive MINT+RFM baseline vs reactive PRAC+ABO at TRHD 500/1K/2K.
// One job per (TRHD, workload); each job runs the MINT and PRAC timing
// simulations back to back, as the sequential engine did.
func (r *Runner) Fig3() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig3",
		Title: "Slowdown and refresh power: MINT+RFM vs PRAC+ABO",
		Columns: []string{"TRHD", "MINT slowdown", "MINT refresh power",
			"PRAC slowdown", "paper (MINT sd/rp, PRAC sd)"},
	}
	paper := map[int]string{
		500:  "11.1% / 16.4%, 6.5%",
		1000: "5.8% / 8.2%, 6.5%",
		2000: "2.9% / 4.1%, 6.5%",
	}
	trhds := []int{500, 1000, 2000}
	type cell struct{ sd, rp, prac float64 }
	var js []job[cell]
	for _, trhd := range trhds {
		for _, spec := range specs {
			trhd, spec := trhd, spec
			js = append(js, job[cell]{
				id: fmt.Sprintf("fig3/trhd=%d/%s", trhd, spec.Name),
				run: func(x *Exec) (cell, error) {
					x.r.opts.Logf("fig3 %s TRHD=%d", spec.Name, trhd)
					sd, rp, err := x.runMINTRFM(spec.Name, trhd)
					if err != nil {
						return cell{}, err
					}
					prac, err := x.runPRAC(spec.Name, trhd)
					if err != nil {
						return cell{}, err
					}
					return cell{sd, rp, prac}, nil
				},
			})
		}
	}
	cells, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}
	for ti, trhd := range trhds {
		var sdSum, rpSum, pracSum float64
		for si := range specs {
			c := cells[ti*len(specs)+si]
			sdSum += c.sd
			rpSum += c.rp
			pracSum += c.prac
		}
		n := float64(len(specs))
		t.AddRow(d(int64(trhd)),
			f2(sdSum/n)+"%", f2(rpSum/n)+"%", f2(pracSum/n)+"%", paper[trhd])
	}
	return t, nil
}

// Fig11a reproduces Figure 11(a): per-workload slowdown of MIRZA (three
// configurations) and PRAC+ABO, normalized to the unprotected baseline.
// Per workload: three MIRZA jobs (TRHD 500/1K/2K) then one PRAC job.
func (r *Runner) Fig11a() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig11a",
		Title:   "Slowdown of MIRZA and PRAC+ABO (% vs unprotected)",
		Columns: []string{"Workload", "MIRZA-500", "MIRZA-1K", "MIRZA-2K", "PRAC"},
	}
	const perSpec = 4
	var js []job[float64]
	for _, spec := range specs {
		spec := spec
		for _, trhd := range []int{500, 1000, 2000} {
			trhd := trhd
			js = append(js, job[float64]{
				id: fmt.Sprintf("fig11a/%s/mirza-%d", spec.Name, trhd),
				run: func(x *Exec) (float64, error) {
					x.r.opts.Logf("fig11a %s", spec.Name)
					cfg, _ := core.ForTRHD(trhd)
					warmed, err := x.warmMirza(spec.Name, []core.Config{cfg})
					if err != nil {
						return 0, err
					}
					return x.runMIRZA(spec.Name, warmed[0])
				},
			})
		}
		js = append(js, job[float64]{
			id: "fig11a/" + spec.Name + "/prac",
			run: func(x *Exec) (float64, error) {
				return x.runPRAC(spec.Name, 1000)
			},
		})
	}
	vals, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}
	sums := make([]float64, perSpec)
	for si, spec := range specs {
		row := []string{spec.Name}
		for c := 0; c < perSpec; c++ {
			sums[c] += vals[si*perSpec+c]
			row = append(row, f2(vals[si*perSpec+c])+"%")
		}
		t.AddRow(row...)
	}
	n := float64(len(specs))
	t.AddRow("Average", f2(sums[0]/n)+"%", f2(sums[1]/n)+"%", f2(sums[2]/n)+"%", f2(sums[3]/n)+"%")
	t.Notes = append(t.Notes, "paper averages: MIRZA 1.43% / 0.36% / 0.05%, PRAC 6.5%")
	return t, nil
}

// Table5 reproduces Table V: slowdown of Naive MIRZA (no coarse-grained
// filtering: FTH=0) as the MIRZA-Q size varies, for MINT windows 24/48/96.
// One job per (MINT-W, Q, workload) timing simulation.
func (r *Runner) Table5() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	queueSizes := []int{1, 2, 4, 8}
	windows := []int{24, 48, 96}
	t := &Table{
		ID:      "table5",
		Title:   "Naive MIRZA (MINT+ABO, no filtering) slowdown vs MIRZA-Q size",
		Columns: []string{"MINT-W", "Q=1", "Q=2", "Q=4", "Q=8", "paper (Q=4)"},
	}
	paper := map[int]string{24: "10.95%", 48: "5.81%", 96: "3.08%"}
	var js []job[float64]
	for _, w := range windows {
		for _, q := range queueSizes {
			for _, spec := range specs {
				w, q, spec := w, q, spec
				js = append(js, job[float64]{
					id: fmt.Sprintf("table5/w=%d/q=%d/%s", w, q, spec.Name),
					run: func(x *Exec) (float64, error) {
						x.r.opts.Logf("table5 %s W=%d Q=%d", spec.Name, w, q)
						base, err := x.r.Baseline(spec.Name)
						if err != nil {
							return 0, err
						}
						cfg, err := core.ForTRHD(1000)
						if err != nil {
							return 0, err
						}
						cfg.FTH = 0 // naive: every activation participates
						cfg.MINTWindow = w
						cfg.QueueSize = q
						cfg.Seed = x.r.opts.Seed
						// Validate here where an error can be returned; inside the
						// factory closure MustNew can only panic (the job engine's
						// recovery is the backstop for that).
						if err := cfg.Validate(); err != nil {
							return 0, fmt.Errorf("table5 W=%d Q=%d: %w", w, q, err)
						}
						factory := func(sub int, sink track.Sink) track.Mitigator {
							c := cfg
							c.Seed += uint64(sub) * 131
							return core.MustNew(c, sink)
						}
						res, err := x.runTiming(base, dram.DDR5(), 0, factory)
						if err != nil {
							return 0, err
						}
						return slowdownVs(base, res), nil
					},
				})
			}
		}
	}
	vals, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, w := range windows {
		row := []string{d(int64(w))}
		for range queueSizes {
			var sum float64
			for range specs {
				sum += vals[i]
				i++
			}
			row = append(row, f2(sum/float64(len(specs)))+"%")
		}
		row = append(row, paper[w])
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Q=1 column is 64-152%: a single-entry queue forces an ALERT for every selection")
	return t, nil
}

// Table9 reproduces Table IX: MIRZA's slowdown and remaining-activation
// fraction at TRHD=1K as the (MINT-W, FTH) pair varies. One job per
// workload: one warm-up pass primes two sets per MINT-W, one for the
// escape-fraction replay and one for the timing run; one measured pass
// then replays the escape sets, and the timing runs follow.
func (r *Runner) Table9() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	model := security.DefaultMINTModel()
	t := &Table{
		ID:      "table9",
		Title:   "MIRZA sensitivity at TRHD=1K: FTH vs MINT-W",
		Columns: []string{"MINT-W", "FTH", "SRAM/Bank (B)", "Slowdown (%)", "Remaining ACTs (%)", "paper (sd/rem)"},
	}
	paper := map[int]string{4: "0.10/0.06", 8: "0.13/0.21", 12: "0.36/0.88", 16: "0.60/2.29"}
	windows := []int{4, 8, 12, 16}
	cfgs := make([]core.Config, len(windows))
	for i, w := range windows {
		cfg, _ := core.ForTRHD(1000)
		cfg.MINTWindow = w
		if w == 12 {
			// The paper's default configuration.
			cfg.FTH = 1500
		} else {
			cfg.FTH = security.FTHForTRHD(1000, w, cfg.QueueSize, cfg.QTH, model)
		}
		cfgs[i] = cfg
	}
	type cell struct {
		sd     float64
		counts core.MirzaStats // the escape set's
	}
	perSpec, err := runJobs(r, workloadJobs("table9", specs, func(x *Exec, name string) ([]cell, error) {
		x.r.opts.Logf("table9 %s", name)
		// Each config twice: the escape sets, then the timing runs' sets.
		warmed, err := x.warmMirza(name, append(append([]core.Config(nil), cfgs...), cfgs...))
		if err != nil {
			return nil, err
		}
		escape := warmed[:len(cfgs)]
		if _, err := x.replay(name, replayPass{kind: measurePass, sets: asSets(escape)}); err != nil {
			return nil, err
		}
		cells := make([]cell, len(cfgs))
		for wi, set := range escape {
			cells[wi].counts = setTotals(set)
			if cells[wi].sd, err = x.runMIRZA(name, warmed[len(cfgs)+wi]); err != nil {
				return nil, err
			}
		}
		return cells, nil
	}))
	if err != nil {
		return nil, err
	}
	for wi, w := range windows {
		var sdSum float64
		var acts, escaped int64
		for _, cells := range perSpec {
			sdSum += cells[wi].sd
			acts += cells[wi].counts.ACTs
			escaped += cells[wi].counts.Escaped
		}
		n := float64(len(specs))
		t.AddRow(d(int64(w)), d(int64(cfgs[wi].FTH)), d(int64(cfgs[wi].SRAMBytesPerBank())),
			f2(sdSum/n), f2(100*float64(escaped)/float64(acts)), paper[w])
	}
	t.Notes = append(t.Notes,
		"higher FTH filters more but needs a smaller W to stay safe at TRHD=1K; lower W raises ALERT frequency")
	return t, nil
}

// Table13 reproduces Table XIII (Appendix A): average and worst-case
// (performance-attack) slowdown for PRAC, MINT+RFM and MIRZA. One job per
// (TRHD, workload) running the three trackers back to back.
func (r *Runner) Table13() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	pm := attack.NewPerfAttackModel(dram.DDR5())
	t := &Table{
		ID:      "table13",
		Title:   "Average and worst-case slowdown (Appendix A)",
		Columns: []string{"TRHD", "Tracker", "Perf-attack slowdown", "Average slowdown", "paper (atk/avg)"},
	}
	paper := map[string]string{
		"500/PRAC": "1.2x/6.5%", "500/MINT": "1.4x/10.95%", "500/MIRZA": "2.25x/1.43%",
		"1000/PRAC": "1.1x/6.5%", "1000/MINT": "1.2x/5.81%", "1000/MIRZA": "1.8x/0.36%",
		"2000/PRAC": "1.05x/6.5%", "2000/MINT": "1.1x/3.08%", "2000/MIRZA": "1.6x/0.05%",
	}
	trhds := []int{500, 1000, 2000}
	type cell struct{ prac, mint, mirza float64 }
	cfgs, err := mirzaConfigs(trhds)
	if err != nil {
		return nil, err
	}
	var js []job[cell]
	for ti, trhd := range trhds {
		cfg := cfgs[ti]
		for _, spec := range specs {
			trhd, cfg, spec := trhd, cfg, spec
			js = append(js, job[cell]{
				id: fmt.Sprintf("table13/trhd=%d/%s", trhd, spec.Name),
				run: func(x *Exec) (cell, error) {
					x.r.opts.Logf("table13 %s TRHD=%d", spec.Name, trhd)
					prac, err := x.runPRAC(spec.Name, trhd)
					if err != nil {
						return cell{}, err
					}
					mint, _, err := x.runMINTRFM(spec.Name, trhd)
					if err != nil {
						return cell{}, err
					}
					warmed, err := x.warmMirza(spec.Name, []core.Config{cfg})
					if err != nil {
						return cell{}, err
					}
					mirza, err := x.runMIRZA(spec.Name, warmed[0])
					if err != nil {
						return cell{}, err
					}
					return cell{prac, mint, mirza}, nil
				},
			})
		}
	}
	cells, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}
	for ti, trhd := range trhds {
		var pracSum, mintSum, mirzaSum float64
		for si := range specs {
			c := cells[ti*len(specs)+si]
			pracSum += c.prac
			mintSum += c.mint
			mirzaSum += c.mirza
		}
		n := float64(len(specs))
		pracAtk, mintAtk := attack.BaselineAttackSlowdowns(trhd)
		key := fmt.Sprintf("%d/", trhd)
		t.AddRow(d(int64(trhd)), "PRAC+ABO", fmt.Sprintf("%.2fx", pracAtk), f2(pracSum/n)+"%", paper[key+"PRAC"])
		t.AddRow("", "MINT+RFM", fmt.Sprintf("%.2fx", mintAtk), f2(mintSum/n)+"%", paper[key+"MINT"])
		t.AddRow("", "MIRZA", fmt.Sprintf("%.2fx", pm.Slowdown(cfgs[ti].MINTWindow)), f2(mirzaSum/n)+"%", paper[key+"MIRZA"])
	}
	return t, nil
}
