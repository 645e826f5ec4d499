package experiments

import (
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/track"
)

// baselinePolicies are the registered mitigation policies the baseline
// comparison sweeps, in presentation order: the paper's two reference
// trackers first, then the three one-file baselines the registry made
// cheap to add (Graphene's Misra-Gries counter table, the perfect-
// knowledge oracle, and Loaded Dice's probabilistic selector).
var baselinePolicies = []string{"prac", "mint-rfm", "graphene", "oracle", "loaded-dice"}

// Baselines compares every baseline defense at TRHD=1000 on equal footing:
// same workloads, same channel, everything resolved by name through the
// mitigation registry. One job per (policy, workload) timing simulation;
// each row reports the workload-average slowdown, mitigation and ALERT
// activity, refresh-power overhead, and the policy's analytic security
// bound at this provisioning.
func (r *Runner) Baselines() (*Table, error) {
	specs, err := r.opts.workloadSpecs()
	if err != nil {
		return nil, err
	}
	policies := r.opts.Mitigations
	if len(policies) == 0 {
		policies = baselinePolicies
	}
	const trhd = 1000
	t := &Table{
		ID:    "baselines",
		Title: fmt.Sprintf("Baseline defenses at TRHD=%d (workload averages)", trhd),
		Columns: []string{"Policy", "Slowdown", "Mitigations", "ALERTs",
			"Refresh power", "Bound (TRHD)"},
	}
	type cell struct {
		sd           float64
		mits, alerts int64
		rp           float64
	}
	var js []job[cell]
	for _, policy := range policies {
		for _, spec := range specs {
			js = append(js, job[cell]{
				id: fmt.Sprintf("baselines/%s/%s", policy, spec.Name),
				run: func(x *Exec) (cell, error) {
					x.r.opts.Logf("baselines %s %s", policy, spec.Name)
					sd, res, err := x.runPolicy(spec.Name, policy, trhd)
					if err != nil {
						return cell{}, err
					}
					c := cell{sd: sd, mits: res.Stats.Mitigations, alerts: res.Stats.Alerts}
					if res.Stats.DemandRefreshRows > 0 {
						c.rp = 100 * float64(res.Stats.VictimRows) / float64(res.Stats.DemandRefreshRows)
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
	n := float64(len(specs))
	for pi, policy := range policies {
		b, err := track.Build(policy, nil, track.Config{
			Geometry: dram.Default(),
			Mapping:  dram.StridedR2SA,
			TRHD:     trhd,
			Seed:     r.opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		var sdSum, rpSum float64
		var mits, alerts int64
		for si := range specs {
			c := cells[pi*len(specs)+si]
			sdSum += c.sd
			rpSum += c.rp
			mits += c.mits
			alerts += c.alerts
		}
		t.AddRow(b.Name(), f2(sdSum/n)+"%",
			d(mits/int64(len(specs))), d(alerts/int64(len(specs))),
			f2(rpSum/n)+"%", d(int64(b.Bound().TRHD)))
	}
	t.Notes = append(t.Notes,
		"oracle is the perfect-knowledge upper bound: exact per-row counters, mitigation exactly at threshold",
		"graphene provisions its counter table for the worst-case ACT rate (Misra-Gries guarantee 4T)",
		"loaded-dice piggybacks probabilistic selection on the RFM cadence (non-selection-free, MINT-style bound)")
	return t, nil
}
