package experiments

import (
	"fmt"
	"path/filepath"

	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/tracefile"
)

// tracereplayPolicies is the default grid when Options.Mitigations is
// empty: the unprotected reference, the paper's reactive tracker, and
// MIRZA.
var tracereplayPolicies = []string{"none", "prac", "mirza"}

// tracereplayMSHR is the per-core outstanding-miss budget for recorded
// traces: external request streams carry no Table IV statistics to
// calibrate against, so replays run with ample memory-level parallelism
// and let the recorded gaps pace the stream.
const tracereplayMSHR = 8

// TraceReplay drives each Options.TraceFiles trace (DRAMSim3 or native
// NDJSON, sharded round-robin over the cores into one shared address
// space) through the timing simulator under each mitigation of the grid,
// reporting the memory-system activity the external workload provokes.
// With no trace files configured it renders an informational table
// instead of failing, so the full experiment sweep stays runnable.
func (r *Runner) TraceReplay() (*Table, error) {
	t := &Table{
		ID:    "tracereplay",
		Title: "Recorded-trace replay through the timing simulator",
		Columns: []string{"Trace", "Ops", "Policy", "IPC", "ACTs", "Row hit%",
			"ALERTs", "Mitigations", "Bus util"},
	}
	if len(r.opts.TraceFiles) == 0 {
		t.Notes = append(t.Notes, "no trace files configured: pass -trace FILE (or Options.TraceFiles) to replay recorded workloads")
		return t, nil
	}
	policies := r.opts.Mitigations
	if len(policies) == 0 {
		policies = tracereplayPolicies
	}
	const trhd = 1000

	// Parse every file up front (strict mode): admission errors carry the
	// file and line, and the manifest hash pins the content replayed.
	traces := make([]*tracefile.Trace, len(r.opts.TraceFiles))
	for i, path := range r.opts.TraceFiles {
		tr, err := tracefile.Load(path, tracefile.Options{})
		if err != nil {
			return nil, err
		}
		traces[i] = tr
		r.opts.Logf("trace %s: %s", path, tr.ManifestJSON())
	}

	type cell struct {
		ipc     float64
		stats   mem.Stats
		busUtil float64
		window  dram.Time
	}
	var js []job[cell]
	for _, tr := range traces {
		for _, policy := range policies {
			js = append(js, job[cell]{
				id: fmt.Sprintf("tracereplay/%s/%s", tr.Name, policy),
				run: func(x *Exec) (cell, error) {
					x.r.opts.Logf("tracereplay %s under %s", tr.Name, policy)
					b, err := x.buildPolicy(policy, trhd, nil)
					if err != nil {
						return cell{}, err
					}
					gens, err := tr.PerCore(x.r.opts.Cores)
					if err != nil {
						return cell{}, err
					}
					// Every shard indexes the recorded stream's single
					// address space.
					asids := make([]int, len(gens))
					res, err := x.simulate(Machine{Gens: gens, ASIDs: asids, MSHR: tracereplayMSHR,
						Timing: b.Timing(), RFMBAT: b.RFMBAT(), NewMitigator: b.Factory()}, "tracereplay")
					if err != nil {
						return cell{}, err
					}
					c := cell{stats: res.Stats, window: res.Window}
					for _, ipc := range res.IPCs {
						c.ipc += ipc
					}
					c.ipc /= float64(len(res.IPCs))
					if res.Window > 0 {
						c.busUtil = 100 * float64(res.Stats.BusBusy) / float64(res.Window) /
							float64(dram.Default().SubChannels)
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
	for ti, tr := range traces {
		for pi, policy := range policies {
			c := cells[ti*len(policies)+pi]
			hitPct := 0.0
			if cols := c.stats.RowHits + c.stats.RowMisses; cols > 0 {
				hitPct = 100 * float64(c.stats.RowHits) / float64(cols)
			}
			t.AddRow(tr.Name, d(int64(len(tr.Ops))), policy,
				f3(c.ipc), d(c.stats.ACTs), f1(hitPct),
				d(c.stats.Alerts), d(c.stats.Mitigations), f1(c.busUtil)+"%")
		}
	}
	for i, tr := range traces {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %s format, sha256 %s (%s)",
			tr.Name, tr.Format, tr.Hash[:16], filepath.Base(r.opts.TraceFiles[i])))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("traces shard round-robin over %d cores into one shared address space; recorded cycle deltas pace each shard", r.opts.Cores))
	return t, nil
}
