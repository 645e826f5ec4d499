// Package tenant models multi-tenant (inter-VM) RowHammer scenarios: an
// attacker VM hammering its own memory alongside victim VMs running
// ordinary workloads, all sharing banks through the first-touch page
// mapper (internal/vmap).
//
// A tenant is one address space (ASID). Its cores share a virtual layout,
// so a VM's footprint occupies a set of 512MB physical superblocks; under
// the MOP4 layout each 256KB-aligned slice of physical memory is one DRAM
// row index across all banks, so every (bank, row) is owned by exactly
// one tenant — which is what lets a disturbed victim row be attributed to
// the tenant whose data lives there (a cross-VM escape) or to the
// attacker itself (a self flip).
//
// The attacker needs no channel back to physical addresses: superblock
// translation preserves offsets, so hammering the first and last rows of
// its own virtual superblocks lands exactly on the physical edges of its
// allocation — the rows adjacent to other tenants' memory.
package tenant

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mirza/internal/trace"
	"mirza/internal/vmap"
)

// Attack kinds accepted in a spec's "attack=<kind>" entry.
const (
	// AttackEdge hammers the outermost rows of the attacker's own
	// allocation: the disturbed neighbours on the far side belong to
	// whoever owns the adjacent physical superblocks — the cross-VM
	// escape channel.
	AttackEdge = "edge"
	// AttackDouble hammers row pairs two apart inside the allocation,
	// the classic double-sided pattern against the attacker's own rows
	// (maximum tracker pressure, self-owned victims).
	AttackDouble = "double"
)

// Tenant is one VM of a scenario.
type Tenant struct {
	Name     string // display label: workload name or "attack=<kind>"
	Workload string // workload tenants: a trace.Lookup name
	Attack   string // attacker tenants: AttackEdge or AttackDouble
	Cores    int    // cores this VM runs on
}

// IsAttacker reports whether the tenant is the hammering VM.
func (t Tenant) IsAttacker() bool { return t.Attack != "" }

// Spec is a parsed multi-tenant scenario. The tenant index is the ASID.
type Spec struct {
	Tenants []Tenant
}

// MaxCores bounds a spec's total core count. Each core gets its own
// trace generator, and the activation replayer refuses more than this
// many (its merge key packs a core index into 10 bits).
const MaxCores = 1 << 10

// DefaultSpec is the scenario used when -tenants gives none: a 6-core
// victim VM running xz next to a 2-core attacker hammering its own
// allocation's edges.
const DefaultSpec = "xz:6+attack=edge:2"

// Parse parses a scenario spec: '+'-separated tenants, each
// "workload[:cores]" or "attack=<kind>[:cores]" (cores default 1), e.g.
// "xz:6+attack=edge:2". At most one attacker is allowed (the attribution
// model distinguishes attacker-owned from victim-owned rows), and the
// tenants share at most MaxCores cores.
func Parse(s string) (*Spec, error) {
	spec := &Spec{}
	attackers, cores := 0, 0
	for _, ent := range strings.Split(s, "+") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		t := Tenant{Cores: 1}
		if i := strings.LastIndex(ent, ":"); i >= 0 {
			n, err := strconv.Atoi(strings.TrimSpace(ent[i+1:]))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("tenant: bad core count in %q (want name:cores with cores >= 1)", ent)
			}
			t.Cores = n
			ent = strings.TrimSpace(ent[:i])
		}
		// Summed entry by entry, so a huge count cannot overflow the total.
		if cores += t.Cores; t.Cores > MaxCores || cores > MaxCores {
			return nil, fmt.Errorf("tenant: %q needs more than %d cores", s, MaxCores)
		}
		if kind, ok := strings.CutPrefix(ent, "attack="); ok {
			if kind != AttackEdge && kind != AttackDouble {
				return nil, fmt.Errorf("tenant: unknown attack kind %q (want %s or %s)", kind, AttackEdge, AttackDouble)
			}
			t.Attack = kind
			t.Name = "attack=" + kind
			attackers++
			if attackers > 1 {
				return nil, fmt.Errorf("tenant: more than one attacker in %q", s)
			}
		} else {
			if _, err := trace.Lookup(ent); err != nil {
				return nil, fmt.Errorf("tenant: %w", err)
			}
			t.Workload = ent
			t.Name = ent
		}
		spec.Tenants = append(spec.Tenants, t)
	}
	if len(spec.Tenants) == 0 {
		return nil, fmt.Errorf("tenant: empty spec %q", s)
	}
	if len(spec.Tenants) > vmap.MaxASID {
		return nil, fmt.Errorf("tenant: %d tenants exceed the %d address-space limit", len(spec.Tenants), vmap.MaxASID)
	}
	return spec, nil
}

// String renders the spec canonically: re-parsing it yields an equal
// spec, and equal specs render identically (the serve cache keys on it).
func (s *Spec) String() string {
	parts := make([]string, len(s.Tenants))
	for i, t := range s.Tenants {
		parts[i] = fmt.Sprintf("%s:%d", t.Name, t.Cores)
	}
	return strings.Join(parts, "+")
}

// TotalCores is the core count of the combined system.
func (s *Spec) TotalCores() int {
	n := 0
	for _, t := range s.Tenants {
		n += t.Cores
	}
	return n
}

// Attacker returns the attacker tenant's index (ASID), or -1.
func (s *Spec) Attacker() int {
	for i, t := range s.Tenants {
		if t.IsAttacker() {
			return i
		}
	}
	return -1
}

// CoreLayout returns, per core of the combined system, the owning tenant
// index. Cores are laid out in spec order (tenant 0's cores first).
func (s *Spec) CoreLayout() []int {
	var layout []int
	for i, t := range s.Tenants {
		for c := 0; c < t.Cores; c++ {
			layout = append(layout, i)
		}
	}
	return layout
}

// Generators builds the combined system's per-core generator and ASID
// slices. Workload tenants run one seeded copy of their workload per core
// (the VM's threads), all in the tenant's address space; the attacker's
// cores run the hammer stream. Seeds derive from (seed, tenant, core) so
// the streams are identical regardless of how many tenants run alongside.
func (s *Spec) Generators(seed uint64) (gens []trace.Generator, asids []int, err error) {
	for ti, t := range s.Tenants {
		tg, err := s.tenantGens(ti, t, seed)
		if err != nil {
			return nil, nil, err
		}
		gens = append(gens, tg...)
		for range tg {
			asids = append(asids, ti)
		}
	}
	return gens, asids, nil
}

// SoloGenerators builds tenant ti's cores alone (its no-neighbours
// baseline): same generators and address space as in the combined run.
func (s *Spec) SoloGenerators(ti int, seed uint64) (gens []trace.Generator, asids []int, err error) {
	if ti < 0 || ti >= len(s.Tenants) {
		return nil, nil, fmt.Errorf("tenant: index %d out of range", ti)
	}
	tg, err := s.tenantGens(ti, s.Tenants[ti], seed)
	if err != nil {
		return nil, nil, err
	}
	asids = make([]int, len(tg))
	for i := range asids {
		asids[i] = ti
	}
	return tg, asids, nil
}

func (s *Spec) tenantGens(ti int, t Tenant, seed uint64) ([]trace.Generator, error) {
	gens := make([]trace.Generator, t.Cores)
	for c := 0; c < t.Cores; c++ {
		coreSeed := seed + uint64(ti)*0x51eb851f + uint64(c)*0x9E3779B9
		if t.IsAttacker() {
			gens[c] = NewHammer(t.Attack, c)
		} else {
			spec, err := trace.Lookup(t.Workload)
			if err != nil {
				return nil, err
			}
			gens[c] = trace.NewSynthetic(spec, coreSeed)
		}
	}
	return gens, nil
}

// MLPFor returns the MSHR budget for each core: workload tenants use
// their workload's implied memory-level parallelism; attacker cores run
// wide open (16) — a hammer kernel is nothing but outstanding misses.
func (s *Spec) MLPFor() (int, error) {
	mlp := 0
	for _, t := range s.Tenants {
		n := 16
		if !t.IsAttacker() {
			spec, err := trace.Lookup(t.Workload)
			if err != nil {
				return 0, err
			}
			n = spec.MLPLimit()
		}
		if n > mlp {
			mlp = n
		}
	}
	return mlp, nil
}

// Names returns the tenant display names in spec order.
func (s *Spec) Names() []string {
	out := make([]string, len(s.Tenants))
	for i, t := range s.Tenants {
		out[i] = t.Name
	}
	return out
}

// SortedNames returns the names sorted (for deterministic map renders).
func (s *Spec) SortedNames() []string {
	out := s.Names()
	sort.Strings(out)
	return out
}
