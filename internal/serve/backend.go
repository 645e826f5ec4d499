package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mirza/internal/cliflags"
	"mirza/internal/experiments"
	"mirza/internal/fault"
	"mirza/internal/telemetry"
	"mirza/internal/tenant"
	"mirza/internal/trace"
	"mirza/internal/tracefile"
	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register every mitigation policy
)

// ExperimentsBackend runs submitted jobs through the hardened
// experiments.Suite: panic isolation, per-engine-job deadlines, the
// livelock watchdog, and the reduced-fidelity retry. Every job gets a
// private telemetry registry, so its canonical manifest is a pure
// function of (config, seed, fault plan) — the property the result
// cache's byte-for-byte guarantee rests on.
type ExperimentsBackend struct {
	// StallBudget arms the livelock watchdog on every simulation
	// (0 = disabled).
	StallBudget time.Duration

	// Parallelism is the experiment engine's worker count per job
	// (0 = GOMAXPROCS). With several serve workers, keep the product
	// near the core count.
	Parallelism int

	// EngineTimeout bounds each engine job inside a suite run
	// (0 = none). The whole-request deadline is enforced by the server
	// through the context regardless.
	EngineTimeout time.Duration

	// Logf receives suite progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// preparedExperiment is the backend-private payload of Prepared.Opaque.
type preparedExperiment struct {
	exp  experiments.Experiment
	opts experiments.Options
	plan fault.Plan
}

// Prepare validates req and resolves its full configuration — including
// the daemon's fidelity defaults and presets — so the content-addressed
// key pins every knob that can influence the result. Wall-clock-only
// knobs (timeouts, stall budget, parallelism) are deliberately excluded:
// the engine's determinism contract makes them result-neutral.
func (b *ExperimentsBackend) Prepare(req *Request) (*Prepared, error) {
	if req.Experiment == "" {
		return nil, fmt.Errorf("experiment id is required (try \"fig3\"; mirza-bench -list enumerates all)")
	}
	exp, err := experiments.Lookup(req.Experiment)
	if err != nil {
		return nil, err
	}
	plan, err := fault.Parse(req.Faults)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	// The window rules are mirza-bench's, so a request the CLI refuses is
	// refused here too instead of keying an overflowed or rounded window.
	measure, err := cliflags.WindowMS("measure_ms", req.MeasureMS, true)
	if err != nil {
		return nil, err
	}
	warmup, err := cliflags.WindowMS("warmup_ms", req.WarmupMS, true)
	if err != nil {
		return nil, err
	}
	if err := cliflags.ReplayWindows("replay_windows", req.ReplayWindows); err != nil {
		return nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0")
	}

	opts := experiments.DefaultOptions()
	if req.Quick {
		opts = opts.Quick()
	}
	if measure > 0 {
		opts.Measure = measure
	}
	if warmup > 0 {
		opts.Warmup = warmup
	}
	if req.ReplayWindows != 0 {
		opts.ReplayWindows = req.ReplayWindows
	}
	if len(req.Workloads) > 0 {
		opts.Workloads = nil
		for _, name := range req.Workloads {
			name = strings.TrimSpace(name)
			if _, err := trace.Lookup(name); err != nil {
				return nil, err
			}
			opts.Workloads = append(opts.Workloads, name)
		}
	}
	// Resolve mitigation names through the registry so an unknown policy
	// is refused here (a structured 400) instead of failing inside the
	// job after burning a queue slot. Canonicalizing the names keeps the
	// content-addressed key insensitive to the client's casing.
	var mitigations []string
	for _, name := range req.Mitigations {
		d, err := track.Lookup(name)
		if err != nil {
			return nil, err
		}
		mitigations = append(mitigations, d.Name)
	}
	// Canonicalize the tenant spec so equivalent spellings ("xz:1" and
	// "xz") are the same computation under the content-addressed key.
	tenants := ""
	if req.Tenants != "" {
		spec, err := tenant.Parse(req.Tenants)
		if err != nil {
			return nil, err
		}
		tenants = spec.String()
	}
	// Trace files travel by reference; admission parses each one (strict)
	// so a missing or malformed file is refused here, and the cache key
	// pins the content hash — moving or renaming a file never serves a
	// stale result, and two paths to identical bytes coalesce.
	var traceIDs []string
	for _, path := range req.Trace {
		tr, err := tracefile.Load(path, tracefile.Options{})
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		traceIDs = append(traceIDs, tr.Name+":"+tr.Hash)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	opts.Seed = seed
	opts.Faults = plan
	opts.Mitigations = mitigations
	opts.Audit = req.Audit
	opts.Tenants = tenants
	opts.TraceFiles = req.Trace
	opts.StallBudget = b.StallBudget
	opts.Parallelism = b.Parallelism

	// workloads records the resolved set: a request naming all 24
	// explicitly and one naming none are the same computation.
	workloads := opts.Workloads
	if len(workloads) == 0 {
		for _, w := range trace.Workloads() {
			workloads = append(workloads, w.Name)
		}
	}
	config := map[string]string{
		"exp":            exp.ID,
		"measure-ps":     strconv.FormatInt(int64(opts.Measure), 10),
		"warmup-ps":      strconv.FormatInt(int64(opts.Warmup), 10),
		"replay-windows": strconv.Itoa(opts.ReplayWindows),
		"calibration-ps": strconv.FormatInt(int64(opts.CalibrationWindow), 10),
		"cores":          strconv.Itoa(opts.Cores),
		"workloads":      strings.Join(workloads, ","),
		"mitigations":    strings.Join(mitigations, ","),
		"tenants":        tenants,
		"traces":         strings.Join(traceIDs, ","),
		"audit":          strconv.FormatBool(opts.Audit),
		"faults":         plan.String(),
	}
	return &Prepared{
		Req:    req,
		Config: config,
		Seed:   seed,
		Key:    fmt.Sprintf("%s-%d", telemetry.ConfigHash(config), seed),
		Opaque: &preparedExperiment{exp: exp, opts: opts, plan: plan},
	}, nil
}

// Run executes the prepared experiment under the hardened suite and
// renders the canonical manifest. A reduced-fidelity retry is reported
// as Degraded — flagged in both the Outcome and the manifest itself —
// and the server refuses to cache it.
func (b *ExperimentsBackend) Run(ctx context.Context, p *Prepared) *Outcome {
	pe, ok := p.Opaque.(*preparedExperiment)
	if !ok {
		return &Outcome{Err: fmt.Sprintf("serve: Prepared.Opaque is %T, not a prepared experiment", p.Opaque)}
	}
	reg := telemetry.New()
	opts := pe.opts
	opts.Telemetry = reg
	opts.JobTimeout = b.EngineTimeout
	suite := experiments.NewSuite(opts, experiments.SuiteConfig{
		NoRetry: p.Req.NoRetry,
		Logf:    b.Logf,
	})
	res := suite.Run(ctx, pe.exp)
	if res.Failed() {
		return &Outcome{
			Err:      res.Err.Error(),
			Canceled: res.Canceled,
			Panicked: res.Panicked,
			Stack:    res.Stack,
		}
	}

	m := telemetry.NewManifest("mirza-serve", p.Config)
	m.Seed = p.Seed
	m.FaultPlan = pe.plan.String()
	m.Degraded = res.Degraded
	m.FillFromSnapshot(reg.Snapshot())
	// Canonical zeroes the wall-clock fields and strips wall-clock
	// metrics: what is served (and cached) is exactly the deterministic
	// core, so a cache hit is byte-identical to a fresh recomputation.
	body, err := m.Canonical().JSON()
	if err != nil {
		return &Outcome{Err: fmt.Sprintf("rendering manifest: %v", err)}
	}
	return &Outcome{Manifest: body, Degraded: res.Degraded}
}
