package experiments

import (
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/tenant"
	"mirza/internal/track"
)

// intervmPolicies is the default mitigation grid of the inter-VM study:
// the unprotected reference (which shows the cross-VM escape channel the
// attribution measures), the paper's two reference trackers, the
// strongest external baseline, and MIRZA itself.
var intervmPolicies = []string{"none", "prac", "mint-rfm", "graphene", "mirza"}

// intervmFill is the modeled host occupancy: a long-running multi-VM
// machine is mostly allocated, which is what gives the attacker's
// superblock real neighbours to disturb.
const intervmFill = 0.75

// InterVM evaluates the multi-tenant scenario of Options.Tenants (victim
// VMs running workloads next to an attacker VM hammering its own
// allocation) across the mitigation grid. Per policy it reports each
// tenant's slowdown against running alone on the same cores, the
// attack-side activity, and the security outcome with every flip episode
// attributed to the tenant owning the flipped row — cross-VM escapes
// versus the attacker's self-flips.
func (r *Runner) InterVM() (*Table, error) {
	specStr := r.opts.Tenants
	if specStr == "" {
		specStr = tenant.DefaultSpec
	}
	spec, err := tenant.Parse(specStr)
	if err != nil {
		return nil, err
	}
	if spec.Attacker() < 0 {
		return nil, fmt.Errorf("intervm: tenant spec %q has no attacker (add attack=%s or attack=%s)",
			specStr, tenant.AttackEdge, tenant.AttackDouble)
	}
	policies := r.opts.Mitigations
	if len(policies) == 0 {
		policies = intervmPolicies
	}
	mshr, err := spec.MLPFor()
	if err != nil {
		return nil, err
	}
	const trhd = 1000

	// Stage 1: per-tenant solo references — each VM alone on its cores,
	// unprotected, same generators and address space as the shared run.
	var solos []job[*timingResult]
	for ti := range spec.Tenants {
		solos = append(solos, job[*timingResult]{
			id: fmt.Sprintf("intervm/solo/%d-%s", ti, spec.Tenants[ti].Name),
			run: func(x *Exec) (*timingResult, error) {
				x.r.opts.Logf("intervm solo %s", spec.Tenants[ti].Name)
				gens, asids, err := spec.SoloGenerators(ti, x.r.opts.Seed)
				if err != nil {
					return nil, err
				}
				return x.simulate(Machine{Gens: gens, ASIDs: asids, MSHR: mshr}, "intervm")
			},
		})
	}
	soloRes, err := runJobs(r, solos)
	if err != nil {
		return nil, err
	}

	// The physical placement is policy-independent and read-only during
	// the security runs: build it once, share it across jobs.
	layout, err := tenant.BuildLayout(spec, dram.Default().CapacityBytes(), intervmFill)
	if err != nil {
		return nil, err
	}

	// Stage 2: one job per policy — the shared run (all VMs together
	// under the mitigation) plus the attributed security run.
	type cell struct {
		sds   []float64 // per-tenant slowdown vs solo
		stats mem.Stats
		sec   *tenant.SecurityResult
		bound int
	}
	layoutOf := spec.CoreLayout()
	var js []job[cell]
	for pi, policy := range policies {
		js = append(js, job[cell]{
			id: fmt.Sprintf("intervm/%s", policy),
			run: func(x *Exec) (cell, error) {
				x.r.opts.Logf("intervm %s under %s", spec, policy)
				b, err := x.buildPolicy(policy, trhd, nil)
				if err != nil {
					return cell{}, err
				}
				gens, asids, err := spec.Generators(x.r.opts.Seed)
				if err != nil {
					return cell{}, err
				}
				res, err := x.simulate(Machine{Gens: gens, ASIDs: asids, MSHR: mshr,
					Timing: b.Timing(), RFMBAT: b.RFMBAT(), NewMitigator: b.Factory()}, "intervm")
				if err != nil {
					return cell{}, err
				}
				c := cell{stats: res.Stats, bound: b.Bound().TRHD}
				for ti := range spec.Tenants {
					c.sds = append(c.sds, tenantSlowdown(layoutOf, ti, soloRes[ti].IPCs, res.IPCs))
				}

				factory := b.Factory()
				c.sec, err = layout.RunSecurity(tenant.SecurityConfig{
					Geometry: dram.Default(),
					Timing:   b.Timing(),
					Mapping:  dram.StridedR2SA,
					TRHD:     trhd,
					Windows:  x.r.opts.ReplayWindows,
					RFMEvery: b.RFMBAT(),
					NewMitigator: func(sink track.Sink) track.Mitigator {
						return x.wrapMit(factory(0, sink), uint64(100+pi))
					},
				})
				if err != nil {
					return cell{}, err
				}
				return c, nil
			},
		})
	}
	cells, err := runJobs(r, js)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "intervm",
		Title: fmt.Sprintf("Inter-VM scenario %s at TRHD=%d (slowdown vs each VM alone; flips attributed to the victim row's owner)",
			spec, trhd),
	}
	t.Columns = []string{"Policy"}
	for _, name := range spec.Names() {
		t.Columns = append(t.Columns, "SD "+name)
	}
	t.Columns = append(t.Columns, "ALERTs", "Mitigations", "xVM flips", "self flips", "maxDS", "Bound")
	for pi, policy := range policies {
		c := cells[pi]
		row := []string{policy}
		for _, sd := range c.sds {
			row = append(row, f2(sd)+"%")
		}
		row = append(row, d(c.stats.Alerts), d(c.stats.Mitigations),
			d(int64(c.sec.CrossFlips)), d(int64(c.sec.SelfFlips)),
			d(int64(c.sec.Sim.MaxDoubleSided)), d(int64(c.bound)))
		t.AddRow(row...)
	}
	left, right := layout.Neighbours()
	t.Notes = append(t.Notes,
		fmt.Sprintf("attack pattern %s on the attacker's superblock %d of a %.0f%%-occupied host (physical neighbours: %s below, %s above)",
			cells[0].sec.Pattern, layout.AttackedBlock, 100*intervmFill, left, right),
		"SD columns compare each VM's per-core IPC against the same VM running alone (unprotected) on its cores",
		"xVM flips landed in memory the attacker does not own (victim VMs, background VMs, free); self flips in its own allocation")
	return t, nil
}

// tenantSlowdown is the per-tenant weighted slowdown: the mean over the
// tenant's cores of shared-run IPC over solo IPC, as a percent loss.
func tenantSlowdown(layout []int, ti int, solo, shared []float64) float64 {
	var ws float64
	n := 0
	si := 0
	for core, owner := range layout {
		if owner != ti {
			continue
		}
		if si < len(solo) && solo[si] > 0 && core < len(shared) {
			ws += shared[core] / solo[si]
			n++
		}
		si++
	}
	if n == 0 {
		return 0
	}
	return 100 * (1 - ws/float64(n))
}
