// Package sweep is the fleet-scale sweep engine: it decomposes a
// declarative grid specification (experiment × workload × mitigation ×
// seed-range) into deterministic, identity-seeded shards, executes them
// across worker processes (mirza-bench in shard mode), and chains the
// resulting canonical run manifests into the tamper-evident
// internal/provenance ledger.
//
// The determinism contract extends the one internal/jobs gives threads
// to processes: every shard is a pure function of its serve.Request
// (content-addressed as telemetry.ConfigHash(config)+"-"+seed, computed
// by the same Prepare the daemon uses), results are gathered and
// ledgered in shard-enumeration order, and therefore the merged ledger,
// head root and rendered table are byte-identical at any -workers
// count — the property `make sweep-check` pins in CI.
//
// Incremental re-runs skip shards whose key already has a validated
// canonical manifest stored in the ledger (recorded, or stored by a run
// that died before recording), so growing a seed range re-executes only
// the new shards. A recorded shard is never re-run: a recorded file that
// no longer matches its entry fails the shard, and the ledger refuses
// to rewrite an existing key with different bytes.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"mirza/internal/serve"
)

// MaxShards bounds one grid's enumeration: a typo in a seed range
// should fail loudly, not enqueue a million processes.
const MaxShards = 4096

// SeedRange is an inclusive seed interval. The zero value means the
// default seed (1) only. Seed 0 is not enumerable: the CLIs and the
// daemon resolve it to 1, so a range starting at 0 would alias its
// first two shards onto one key.
type SeedRange struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// Grid is the declarative sweep specification: the cross product of the
// axes below, sharing the scalar fidelity knobs. Thresholds ride on the
// experiment axis — threshold sweeps (table2, table7, fig3 …) enumerate
// TRHD inside one experiment, so a grid row pins the whole curve.
type Grid struct {
	// Experiments lists experiment ids (mirza-bench -list). Required.
	Experiments []string `json:"experiments"`

	// Seeds is the seed axis (inclusive; zero value = seed 1 only).
	Seeds SeedRange `json:"seeds"`

	// Workloads is the workload axis: one shard per name. Empty means a
	// single shard per (experiment, mitigation, seed) using the
	// experiment's default workload set.
	Workloads []string `json:"workloads,omitempty"`

	// Mitigations is the mitigation-policy axis: one shard per name
	// (internal/track registry). Empty means a single shard using the
	// experiment's default policy grid.
	Mitigations []string `json:"mitigations,omitempty"`

	// Scalar fidelity knobs, applied to every shard. They participate in
	// every shard's content-addressed identity exactly as they do for a
	// daemon job.
	Quick         bool     `json:"quick,omitempty"`
	MeasureMS     float64  `json:"measure_ms,omitempty"`
	WarmupMS      float64  `json:"warmup_ms,omitempty"`
	ReplayWindows int      `json:"replay_windows,omitempty"`
	Faults        string   `json:"faults,omitempty"`
	Audit         bool     `json:"audit,omitempty"`
	Tenants       string   `json:"tenants,omitempty"`
	Trace         []string `json:"trace,omitempty"`
	TimeoutMS     int64    `json:"timeout_ms,omitempty"`
}

// Shard is one enumerated grid cell: a complete daemon-shaped request
// plus its stable identity within the grid.
type Shard struct {
	// Index is the shard's position in enumeration order — the order
	// results are merged and ledgered in, at any worker count.
	Index int

	// ID is the human-readable shard identity, e.g.
	// "fig3/w=xz/m=prac/s=3". It names the shard in logs, the ledger and
	// the sweep table; the content-addressed key is computed from Req.
	ID string

	// Req is the shard's request, identical in shape and semantics to a
	// POST /v1/jobs body. NoRetry is forced on: a sweep wants a loud
	// failure, never a silently degraded row.
	Req serve.Request
}

// ParseGrid decodes a grid from strict JSON (unknown fields are
// errors, like the daemon's request parsing).
func ParseGrid(b []byte) (*Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("sweep: grid: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil {
		return nil, fmt.Errorf("sweep: grid: trailing data after the JSON document")
	}
	return &g, nil
}

// LoadGrid reads a grid specification file.
func LoadGrid(path string) (*Grid, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	g, err := ParseGrid(b)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return g, nil
}

// validate checks the grid's shape. Axis *values* (experiment ids,
// workload and mitigation names, fault syntax) are validated by Prepare
// per shard, exactly as the daemon validates a request.
func (g *Grid) validate() error {
	if len(g.Experiments) == 0 {
		return fmt.Errorf("sweep: grid needs at least one experiment (try \"fig3\"; mirza-bench -list enumerates all)")
	}
	for _, e := range g.Experiments {
		if strings.TrimSpace(e) == "" {
			return fmt.Errorf("sweep: grid has an empty experiment id")
		}
	}
	s := g.Seeds
	if s.From == 0 && s.To == 0 {
		return nil // default seed
	}
	if s.From == 0 || s.To == 0 {
		return fmt.Errorf("sweep: seed range {%d, %d} must set both ends (seeds start at 1)", s.From, s.To)
	}
	if s.From > s.To {
		return fmt.Errorf("sweep: seed range from=%d > to=%d", s.From, s.To)
	}
	return nil
}

// Shards enumerates the grid deterministically: experiments (outer) ×
// workloads × mitigations × seeds (inner), exactly the order the merged
// ledger records. The enumeration itself never runs anything.
func (g *Grid) Shards() ([]Shard, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	seeds := g.Seeds
	if seeds.From == 0 {
		seeds = SeedRange{From: 1, To: 1}
	}
	// Bound the span in uint64: a range over more than MaxInt64 seeds
	// would convert to a negative int and slip past the bound below.
	if seeds.To-seeds.From >= MaxShards {
		return nil, fmt.Errorf("sweep: seed range %d-%d is above the %d-shard bound — narrow it", seeds.From, seeds.To, MaxShards)
	}
	n := len(g.Experiments) * axisLen(g.Workloads) * axisLen(g.Mitigations) * int(seeds.To-seeds.From+1)
	if n > MaxShards {
		return nil, fmt.Errorf("sweep: grid enumerates %d shards, above the %d bound — narrow an axis", n, MaxShards)
	}
	shards := make([]Shard, 0, n)
	for _, exp := range g.Experiments {
		exp = strings.TrimSpace(exp)
		for _, w := range axis(g.Workloads) {
			for _, m := range axis(g.Mitigations) {
				// Counting by offset keeps a range ending at MaxUint64 finite.
				for off := uint64(0); off <= seeds.To-seeds.From; off++ {
					seed := seeds.From + off
					id := exp
					if w != "" {
						id += "/w=" + w
					}
					if m != "" {
						id += "/m=" + m
					}
					id += fmt.Sprintf("/s=%d", seed)
					req := serve.Request{
						Experiment:    exp,
						Seed:          seed,
						Quick:         g.Quick,
						MeasureMS:     g.MeasureMS,
						WarmupMS:      g.WarmupMS,
						ReplayWindows: g.ReplayWindows,
						Faults:        g.Faults,
						Audit:         g.Audit,
						Tenants:       g.Tenants,
						Trace:         g.Trace,
						TimeoutMS:     g.TimeoutMS,
						NoRetry:       true,
					}
					if w != "" {
						req.Workloads = []string{w}
					}
					if m != "" {
						req.Mitigations = []string{m}
					}
					shards = append(shards, Shard{Index: len(shards), ID: id, Req: req})
				}
			}
		}
	}
	return shards, nil
}

// axis iterates an optional axis: its values, or one empty slot meaning
// "the experiment's default".
func axis(vals []string) []string {
	if len(vals) == 0 {
		return []string{""}
	}
	return vals
}

func axisLen(vals []string) int {
	if len(vals) == 0 {
		return 1
	}
	return len(vals)
}
