// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a function returning a typed Table that
// cmd/mirza-bench renders, printing each experiment's wall time on its
// "took" line.
//
// Methodology (see DESIGN.md): slowdown experiments run the cycle-level
// full-system simulator (internal/cpu + internal/mem) over a measurement
// window after warmup, with MIRZA's Region Count Table pre-warmed by the
// fast replayer so the short timing window sees steady-state filtering.
// Statistics that need full 32ms refresh windows (filter escape rates,
// ACTs/subarray distributions, ALERT rates, refresh power) come from the
// replayer directly, driving the same track.Mitigator implementations.
package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mirza/internal/cliflags"
	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/fault"
	"mirza/internal/jobs"
	"mirza/internal/mem"
	"mirza/internal/replay"
	"mirza/internal/telemetry"
	"mirza/internal/trace"
	"mirza/internal/track"
)

// Options scales the experiments. The defaults favour fidelity; tests and
// quick runs shrink them.
type Options struct {
	Seed uint64

	// Warmup and Measure bound the timing-simulation windows.
	Warmup  dram.Time
	Measure dram.Time

	// ReplayWindows is how many tREFW refresh windows the replayer covers;
	// the first is warmup, the rest are measured.
	ReplayWindows int

	// CalibrationWindow is the timing-sim horizon used to measure each
	// workload's instruction rate for the replayer's time axis.
	CalibrationWindow dram.Time

	// Workloads restricts the workload set (nil = all 24 of Table IV).
	Workloads []string

	// Mitigations restricts the policy grid of the baseline-comparison
	// experiment to these registered mitigation names (nil = the default
	// set). Names are resolved through the internal/track registry; an
	// unknown name fails the experiment with the registry's descriptive
	// error. Experiments that reproduce a specific paper figure ignore
	// this and keep their published policy mix.
	Mitigations []string

	// Cores is the rate-mode width (default 8).
	Cores int

	// Tenants is the multi-tenant scenario spec of the intervm experiment
	// family (tenant.Parse grammar, e.g. "xz:6+attack=edge:2"). Empty
	// selects tenant.DefaultSpec.
	Tenants string

	// TraceFiles are recorded trace files (internal/tracefile formats)
	// the tracereplay experiment drives through the timing simulator.
	// Empty renders that experiment as an informational no-op table.
	TraceFiles []string

	// Faults declares a fault-injection campaign threaded through every
	// mitigator the experiments build. The zero value injects nothing and
	// leaves all outputs bit-identical to an unfaulted run.
	Faults fault.Plan

	// StallBudget, when positive, arms a watchdog on every timing
	// simulation: if simulated time stops advancing for this much
	// wall-clock time the run aborts with a *sim.StallError diagnostic
	// instead of spinning forever. Each job arms its own watchdog
	// instance, so one stalled simulation never trips another's budget.
	StallBudget time.Duration

	// Parallelism is the worker count of the job engine: every experiment
	// decomposes into independent (workload, timing, mitigator-factory,
	// seed) jobs executed on this many workers, with results gathered in
	// submission order. 0 defaults to runtime.GOMAXPROCS(0), overridable
	// through MIRZA_PARALLELISM; 1 reproduces the strictly sequential
	// engine exactly (see DESIGN.md §9 for the determinism contract).
	Parallelism int

	// JobTimeout, when positive, is the wall-clock deadline per job. A
	// job that exceeds it is abandoned and its experiment fails with a
	// jobs.ErrTimeout-wrapped error.
	JobTimeout time.Duration

	// Audit, when true, attaches the DDR5 protocol auditor
	// (internal/audit) to every simulated channel — baselines, MLP
	// calibration and protected timing runs alike — and fails the
	// enclosing job with the auditor's Violation diagnostics if the
	// command stream breaks a timing invariant or an end-of-run
	// conservation check. Off by default: the auditor shadows every
	// command and costs measurable simulation throughput.
	Audit bool

	// Telemetry, when non-nil, collects run metrics: per-sub-channel
	// memory counters, tracker stats, kernel totals, and the job engine's
	// live gauges. All deterministic metrics are identical for identical
	// (options, seed) regardless of Parallelism — counter folds commute.
	// nil (the default) keeps every hot path telemetry-free and all
	// outputs byte-identical to earlier versions.
	Telemetry *telemetry.Registry

	// Logf receives progress lines. setDefaults installs a no-op when nil,
	// so callers may invoke it unconditionally. It may be called from
	// concurrent jobs and must be safe for concurrent use.
	Logf func(format string, args ...any)
}

// DefaultOptions returns full-fidelity settings, overridable through the
// environment: MIRZA_MEASURE_MS, MIRZA_WARMUP_MS, MIRZA_REPLAY_WINDOWS,
// MIRZA_WORKLOADS (comma-separated) and MIRZA_PARALLELISM. Each variable
// is checked by the rule of the matching mirza-bench flag (0 keeps the
// default), and a malformed value is an error naming the variable.
func DefaultOptions() (Options, error) {
	o := Options{
		Seed:              1,
		Warmup:            dram.Millisecond / 2,
		Measure:           3 * dram.Millisecond / 2,
		ReplayWindows:     2,
		CalibrationWindow: dram.Millisecond,
		Cores:             8,
	}
	var err error
	if o.Measure, err = envMS("MIRZA_MEASURE_MS", o.Measure); err != nil {
		return Options{}, err
	}
	if o.Warmup, err = envMS("MIRZA_WARMUP_MS", o.Warmup); err != nil {
		return Options{}, err
	}
	n, err := envInt("MIRZA_REPLAY_WINDOWS")
	if err == nil {
		err = cliflags.ReplayWindows("MIRZA_REPLAY_WINDOWS", n)
	}
	if err != nil {
		return Options{}, err
	}
	if n != 0 {
		o.ReplayWindows = n
	}
	if o.Workloads, err = cliflags.Workloads("MIRZA_WORKLOADS", os.Getenv("MIRZA_WORKLOADS")); err != nil {
		return Options{}, err
	}
	if o.Parallelism, err = envParallelism(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// envMS reads the window in milliseconds in the environment variable
// name, def when it is unset or 0.
func envMS(name string, def dram.Time) (dram.Time, error) {
	v := os.Getenv(name)
	if v == "" {
		return def, nil
	}
	ms, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not a number of milliseconds", name, v)
	}
	t, err := cliflags.WindowMS(name, ms, true)
	if err != nil || t > 0 {
		return t, err
	}
	return def, nil
}

// envInt reads the integer in the environment variable name, 0 when it is
// unset.
func envInt(name string) (int, error) {
	v := os.Getenv(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not an integer", name, v)
	}
	return n, nil
}

// envParallelism reads MIRZA_PARALLELISM, 0 (the default) when unset; like
// -j, a negative worker count is an error.
func envParallelism() (int, error) {
	n, err := envInt("MIRZA_PARALLELISM")
	if err == nil && n < 0 {
		err = fmt.Errorf("MIRZA_PARALLELISM: worker count must be >= 0, got %d", n)
	}
	return n, err
}

// Quick shrinks o to smoke-run scale: tiny timing and calibration
// windows, the minimum replay coverage, and a 3-workload subset. Every
// knob Quick does not touch (seed, faults, parallelism, telemetry, ...)
// carries over, so callers configure once and modify:
//
//	opts, err := experiments.DefaultOptions()
//	opts.Faults = plan
//	opts = opts.Quick()
func (o Options) Quick() Options {
	o.Warmup = 100 * dram.Microsecond
	o.Measure = 300 * dram.Microsecond
	o.ReplayWindows = 2
	o.CalibrationWindow = 300 * dram.Microsecond
	o.Workloads = []string{"fotonik3d", "xz", "bc"}
	o.Cores = 8
	return o
}

func (o *Options) setDefaults() {
	if o.Cores == 0 {
		o.Cores = 8
	}
	if o.Warmup == 0 {
		o.Warmup = dram.Millisecond / 2
	}
	if o.Measure == 0 {
		o.Measure = dram.Millisecond
	}
	if o.ReplayWindows < 2 {
		o.ReplayWindows = 2
	}
	if o.CalibrationWindow == 0 {
		o.CalibrationWindow = dram.Millisecond
	}
	if o.Parallelism == 0 {
		// A malformed value reads as unset here; DefaultOptions reports it.
		if n, err := envParallelism(); err == nil && n > 0 {
			o.Parallelism = n
		} else {
			o.Parallelism = runtime.GOMAXPROCS(0)
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// workloadSpecs resolves the selected workload set.
func (o *Options) workloadSpecs() ([]trace.WorkloadSpec, error) {
	if len(o.Workloads) == 0 {
		return trace.Workloads(), nil
	}
	var out []trace.WorkloadSpec
	for _, name := range o.Workloads {
		w, err := trace.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// Runner holds the state shared by every job of every experiment in one
// process: the options, the single-flight per-workload calibration layer
// (baselines and MLP budgets), and the merged fault log. All exported
// methods are safe for concurrent use by parallel jobs.
type Runner struct {
	opts Options

	// mu guards the calibration maps. Baseline computation itself runs
	// outside the lock under a per-workload once, so two jobs needing the
	// same workload baseline block on one computation instead of running
	// it twice (single-flight).
	mu           sync.Mutex
	baselines    map[string]*flight[*Baseline]
	calibrations map[string]int // times each workload's baseline was computed
	actsPerSA    map[string]*flight[actsStats]

	// faultLog is the merged log of faults injected under opts.Faults:
	// per-job logs folded in deterministic job-submission order.
	faultLog *fault.Log

	// pool executes every experiment job and is the single source of
	// truth for the jobs/busy/speedup accounting (and, when telemetry is
	// enabled, the live jobs_* metrics).
	pool *jobs.Pool

	// runCtx governs every simulation the runner starts: job batches run
	// under it and kernels poll it between event batches, so -timeout and
	// suite deadlines cancel cooperatively. nil means context.Background.
	runCtx context.Context
}

// flight is the single-flight slot for one workload's value in one of the
// Runner's calibration maps.
type flight[T any] struct {
	once sync.Once
	v    T
	err  error
}

// singleFlight returns m's value for name, computing it on first use: a
// concurrent caller for the same name waits on that one computation, and
// its error, if any, stays with the name. m is guarded by r.mu.
func singleFlight[T any](r *Runner, m map[string]*flight[T], name string, compute func() (T, error)) (T, error) {
	r.mu.Lock()
	f, ok := m[name]
	if !ok {
		f = &flight[T]{}
		m[name] = f
	}
	r.mu.Unlock()
	f.once.Do(func() { f.v, f.err = compute() })
	return f.v, f.err
}

// NewRunner builds a Runner over opts.
func NewRunner(opts Options) *Runner {
	opts.setDefaults()
	return &Runner{
		opts:         opts,
		baselines:    make(map[string]*flight[*Baseline]),
		actsPerSA:    make(map[string]*flight[actsStats]),
		calibrations: make(map[string]int),
		faultLog:     fault.NewLog(),
		pool: jobs.NewPool(jobs.Options{
			Parallelism: opts.Parallelism,
			Timeout:     opts.JobTimeout,
			Telemetry:   opts.Telemetry,
		}),
	}
}

// Options returns the runner's effective options.
func (r *Runner) Options() Options { return r.opts }

// WithContext makes ctx govern every subsequent experiment the runner
// executes: not-yet-started jobs are canceled and running simulations stop
// at their next event-batch boundary once ctx is done. It returns r for
// chaining and must not be called while experiments are running.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	r.runCtx = ctx
	return r
}

// context returns the runner's governing context (Background by default).
func (r *Runner) context() context.Context {
	if r.runCtx == nil {
		return context.Background()
	}
	return r.runCtx
}

// FaultLog returns the merged log of faults injected so far under
// Options.Faults (empty for an empty plan). Per-job logs are folded into
// it in job-submission order, so its contents are independent of
// Parallelism. It must not be read while experiments are running.
func (r *Runner) FaultLog() *fault.Log { return r.faultLog }

// JobStats returns how many jobs the runner has executed and their summed
// wall-clock durations — an estimate of the time a -j 1 run would need.
// It reads the job pool's accounting, the same numbers the jobs_* metrics
// expose.
func (r *Runner) JobStats() (n int, busy time.Duration) {
	s := r.pool.Stats()
	return int(s.Ran()), s.Busy
}

// PoolStats exposes the full job-engine accounting (for live endpoints).
func (r *Runner) PoolStats() jobs.PoolStats { return r.pool.Stats() }

// Exec is the execution context of one job: the shared Runner plus
// job-isolated state (the fault log). Simulations always run through an
// Exec so that parallel jobs never share a mutable log or RNG, which is
// what keeps parallel output bit-identical to sequential (fault RNG
// streams are keyed by (plan seed, stream id) — job identity — not by
// execution order).
type Exec struct {
	r   *Runner
	log *fault.Log

	// ctx is the job's context (batch cancellation plus per-job
	// deadline); simulations run under it via cpu.System.RunCtx.
	ctx context.Context
}

// newExec returns a context with a fresh fault log. Jobs get one each
// from the engine; direct (non-engine) callers such as tests use one per
// single-threaded run.
func (r *Runner) newExec() *Exec {
	return &Exec{r: r, log: fault.NewLog(), ctx: r.context()}
}

// context returns the job's governing context (the runner's by default).
func (x *Exec) context() context.Context {
	if x.ctx == nil {
		return x.r.context()
	}
	return x.ctx
}

// wrapMit interposes the configured fault plan on one mitigator instance;
// with an empty plan it returns m unchanged.
func (x *Exec) wrapMit(m track.Mitigator, stream uint64) track.Mitigator {
	return fault.Wrap(x.r.opts.Faults, m, stream, x.log)
}

// Baseline holds the unprotected reference run of one workload.
type Baseline struct {
	Spec    trace.WorkloadSpec
	IPCs    []float64
	IPS     float64 // aggregate instructions per second
	MPKI    float64 // misses (reads) per kilo-instruction, measured
	ACTPKI  float64 // activations per kilo-instruction, measured
	BusUtil float64 // percent
	Stats   mem.Stats
	Window  dram.Time
	MLP     int // calibrated MSHR budget every timing run of the workload uses
}

// Baseline runs (or returns the cached) unprotected reference for name.
// Concurrent callers needing the same workload single-flight onto one
// computation; the computation's RNG streams derive only from (spec,
// options), so the result is bit-identical to the sequential engine's no
// matter which job triggers it first.
func (r *Runner) Baseline(name string) (*Baseline, error) {
	return singleFlight(r, r.baselines, name, func() (*Baseline, error) { return r.computeBaseline(name) })
}

// computeBaseline performs the uncached baseline run. It executes inside
// the workload's single-flight once, so it never runs twice for one name.
func (r *Runner) computeBaseline(name string) (*Baseline, error) {
	spec, err := trace.Lookup(name)
	if err != nil {
		return nil, err
	}
	mlp, err := r.calibrateMLP(spec)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.calibrations[name]++
	r.mu.Unlock()
	r.opts.Logf("baseline %s (%v warmup + %v measure, MLP=%d)", name, r.opts.Warmup, r.opts.Measure, mlp)
	gens, err := trace.PerCore(spec, r.opts.Cores, r.opts.Seed)
	if err != nil {
		return nil, err
	}
	// Baselines are unprotected, so no fault is ever injected to log.
	sys, err := Simulate(r.context(), r.opts, nil, Machine{Gens: gens, MSHR: mlp},
		telemetry.L("layer", "baseline"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	b := &Baseline{
		Spec:    spec,
		IPCs:    sys.IPCs(),
		BusUtil: sys.BusUtilization(),
		Stats:   sys.MemStats(),
		Window:  sys.Window(),
		MLP:     mlp,
	}
	var instr float64
	for _, ipc := range b.IPCs {
		instr += ipc
	}
	cycles := float64(b.Window) / 250 // 250ps CPU cycle
	totalInstr := instr * cycles
	b.IPS = totalInstr / (float64(b.Window) / 1e12)
	if totalInstr > 0 {
		b.MPKI = float64(b.Stats.Reads) / totalInstr * 1000
		b.ACTPKI = float64(b.Stats.ACTs) / totalInstr * 1000
	}
	return b, nil
}

// calibrateMLP searches the small integer MSHR budget whose measured
// instruction rate lands closest to the workload's Table IV-implied rate
// (so the activation-per-subarray statistics match the paper's scale).
// It runs inside the baseline single-flight, so each workload calibrates
// exactly once per Runner.
func (r *Runner) calibrateMLP(spec trace.WorkloadSpec) (int, error) {
	target := spec.ImpliedIPS()
	// Calibration runs its own windows (a quarter of CalibrationWindow
	// warms up) and leaves telemetry to the measured runs.
	o := r.opts
	o.Warmup = r.opts.CalibrationWindow / 4
	o.Measure = r.opts.CalibrationWindow - o.Warmup
	o.Telemetry = nil
	measure := func(mlp int) (float64, error) {
		gens, err := trace.PerCore(spec, r.opts.Cores, r.opts.Seed+99)
		if err != nil {
			return 0, err
		}
		sys, err := Simulate(r.context(), o, nil, Machine{Gens: gens, MSHR: mlp},
			telemetry.L("layer", "calibration"))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", spec.Name, err)
		}
		var ips float64
		for _, ipc := range sys.IPCs() {
			ips += ipc * 4e9
		}
		return ips, nil
	}
	best := spec.MLPLimit()
	bestIPS, err := measure(best)
	if err != nil {
		return 0, err
	}
	for iter := 0; iter < 4; iter++ {
		ratio := bestIPS / target
		if ratio > 0.88 && ratio < 1.14 {
			break
		}
		next := best
		if ratio >= 1.14 {
			next--
		} else {
			next++
		}
		if next < 2 || next > 16 {
			break
		}
		ips, err := measure(next)
		if err != nil {
			return 0, err
		}
		if abs64(ips-target) >= abs64(bestIPS-target) {
			break
		}
		best, bestIPS = next, ips
	}
	r.opts.Logf("calibrated %s: MLP=%d (IPS %.2fG vs target %.2fG)", spec.Name, best, bestIPS/1e9, target/1e9)
	return best, nil
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// runTiming executes a protected timing simulation of base's workload: its
// rate-mode copies at the calibrated MSHR budget.
func (x *Exec) runTiming(base *Baseline, timing dram.Timing, bat int,
	factory func(sub int, sink track.Sink) track.Mitigator) (*timingResult, error) {
	gens, err := trace.PerCore(base.Spec, x.r.opts.Cores, x.r.opts.Seed)
	if err != nil {
		return nil, err
	}
	res, err := x.simulate(Machine{Gens: gens, MSHR: base.MLP, Timing: timing, RFMBAT: bat, NewMitigator: factory}, "timing")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", base.Spec.Name, err)
	}
	return res, nil
}

// slowdownVs returns the percent slowdown of res against the baseline:
// 100 * (1 - normalized weighted speedup).
func slowdownVs(base *Baseline, res *timingResult) float64 {
	if len(base.IPCs) != len(res.IPCs) || len(base.IPCs) == 0 {
		return 0
	}
	var ws float64
	for i := range base.IPCs {
		if base.IPCs[i] > 0 {
			ws += res.IPCs[i] / base.IPCs[i]
		}
	}
	ws /= float64(len(base.IPCs))
	return 100 * (1 - ws)
}

// mirzaMits builds one MIRZA set per config: one instance per sub-channel.
func mirzaMits(cfgs []core.Config, seed uint64) ([][]*core.Mirza, error) {
	sets := make([][]*core.Mirza, len(cfgs))
	for k, cfg := range cfgs {
		for i := 0; i < cfg.Geometry.SubChannels; i++ {
			c := cfg
			c.Seed = seed + uint64(i)*977
			m, err := core.New(c, track.NopSink{})
			if err != nil {
				return nil, fmt.Errorf("experiments: building MIRZA for sub-channel %d: %w", i, err)
			}
			sets[k] = append(sets[k], m)
		}
	}
	return sets, nil
}

// asSets views sets of MIRZA instances as a replay pass's tracker sets.
func asSets(ms [][]*core.Mirza) [][]track.Mitigator {
	out := make([][]track.Mitigator, len(ms))
	for k, set := range ms {
		for _, m := range set {
			out[k] = append(out[k], m)
		}
	}
	return out
}

// setTotals sums a MIRZA set's ACTs, Filtered, Escaped and Mitigations
// over its sub-channels; its other counters stay zero.
func setTotals(set []*core.Mirza) (t core.MirzaStats) {
	for _, m := range set {
		t.ACTs += m.Stats.ACTs
		t.Filtered += m.Stats.Filtered
		t.Escaped += m.Stats.Escaped
		t.Mitigations += m.Stats.Mitigations
	}
	return t
}

// warmMirza builds one fresh MIRZA set per config, primes them all with
// one warm-up pass over the workload and returns them with their stats
// reset, ready for a measured pass or the timing simulator. The warm-up
// runs under the configured fault plan so the warmed state carries any
// injected corruption into the measured phase.
func (x *Exec) warmMirza(name string, cfgs []core.Config) ([][]*core.Mirza, error) {
	sets, err := mirzaMits(cfgs, x.r.opts.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := x.replay(name, replayPass{kind: warmPass, sets: asSets(sets)}); err != nil {
		return nil, err
	}
	for _, set := range sets {
		for _, m := range set {
			m.ResetStats()
		}
	}
	return sets, nil
}

// replayMirza warms one fresh MIRZA set per config, then replays one
// measured pass through them all. The sets' stats cover the whole measured
// pass, its unmeasured first window included; afterWarm, if set, sees them
// right after that window.
func (x *Exec) replayMirza(name string, cfgs []core.Config, afterWarm func([][]*core.Mirza)) ([][]*core.Mirza, []replayResult, error) {
	sets, err := x.warmMirza(name, cfgs)
	if err != nil {
		return nil, nil, err
	}
	p := replayPass{kind: measurePass, sets: asSets(sets)}
	if afterWarm != nil {
		p.afterWarm = func() { afterWarm(sets) }
	}
	res, err := x.replay(name, p)
	return sets, res, err
}

// passKind fixes a replay pass's activation stream, its fault streams and
// its length (DESIGN.md §23).
type passKind int

const (
	// warmPass replays one refresh window of stream Seed+7 to prime
	// trackers; a set's sub-channel i mitigator draws fault stream 100+i.
	warmPass passKind = iota
	// measurePass replays Options.ReplayWindows windows of stream
	// Seed+13, the first of them unmeasured; fault streams 200+i.
	measurePass
)

// replayPass is one activation replay of a workload.
type replayPass struct {
	kind passKind
	// sets[k][i] is tracker set k's mitigator for sub-channel i. One pass
	// drives every set; no sets replays unprotected.
	sets [][]track.Mitigator
	// afterWarm, if set, runs right after the first refresh window.
	afterWarm func()
	// obs, if set, sees every activation of the measured windows.
	obs replay.Observer
	// countOnly passes each ACT to the sets' members through OnActivate
	// alone: nothing polls or services their ALERTs, so the results'
	// Alerts read 0. It suits readers of activation counts only, such as
	// MIRZA's Filtered, which no ALERT changes.
	countOnly bool
}

// replayResult is what one tracker set saw in a pass, per sub-channel. A
// warm-up pass fills in only faults.
type replayResult struct {
	warm     []replay.Stats // the first, unmeasured window
	measured []replay.Stats // the measured windows only
	faults   *fault.Log     // the faults injected into this set
}

// measuredTime is the replay time a measured pass counts: every refresh
// window but the first.
func (o Options) measuredTime() dram.Time {
	return dram.Time(o.ReplayWindows-1) * dram.DDR5().TREFW
}

// fanOut is a replay pass's mitigator for one sub-channel: it feeds the
// sub-channel's stream to one member per tracker set. On each ACT it runs
// every member, in set order, through the replay Runner's own sequence
// (OnActivate, WantsALERT, ServiceALERT) and counts the member's ALERTs.
// Replay has no ALERT back-pressure, so the stream does not depend on the
// trackers, and each member sees exactly what a pass of its own would.
type fanOut struct {
	members   []track.Mitigator
	alerts    []int64 // alerts[k] counts member k's serviced ALERTs
	countOnly bool    // see replayPass.countOnly
}

func (f *fanOut) Name() string { return "fan-out" }
func (f *fanOut) OnActivate(bank, row int, now dram.Time) {
	if f.countOnly {
		for _, m := range f.members {
			m.OnActivate(bank, row, now)
		}
		return
	}
	for k, m := range f.members {
		m.OnActivate(bank, row, now)
		if m.WantsALERT() {
			f.alerts[k]++
			m.ServiceALERT(now)
		}
	}
}
func (f *fanOut) WantsALERT() bool { return false }
func (f *fanOut) OnREF(refIndex int, now dram.Time) {
	for _, m := range f.members {
		m.OnREF(refIndex, now)
	}
}
func (f *fanOut) OnRFM(bank int, now dram.Time) {} // replay issues no RFMs
func (f *fanOut) ServiceALERT(now dram.Time)    {}

// replay runs pass p over workload name: every activation replay of the
// experiments goes through here (DESIGN.md §23), one pass feeding every
// tracker set of p. Each set's members are fault-wrapped on the pass's
// streams into a fault log of the set's own, and the sets' logs are merged
// into the job's log in set order, so a K-set pass logs what K one-set
// passes would. It checks the job's context before each refresh window
// and returns its error, naming the workload and the phase, once the job
// is canceled or timed out. A measured pass flushes every member's
// telemetry as layer=replay; a warm-up pass flushes nothing.
func (x *Exec) replay(name string, p replayPass) ([]replayResult, error) {
	r := x.r
	stream, faults, windows, phase := r.opts.Seed+13, uint64(200), r.opts.ReplayWindows, "measured"
	if p.kind == warmPass {
		stream, faults, windows, phase = r.opts.Seed+7, 100, 1, "warm-up"
	}
	stopped := func(window int) error {
		if err := x.context().Err(); err != nil {
			return fmt.Errorf("%s: %s replay pass stopped before window %d of %d: %w",
				name, phase, window, windows, err)
		}
		return nil
	}
	if err := stopped(1); err != nil {
		return nil, err
	}
	base, err := r.Baseline(name)
	if err != nil {
		return nil, err
	}
	gens, err := trace.PerCore(base.Spec, r.opts.Cores, stream)
	if err != nil {
		return nil, err
	}
	fans := make([]*fanOut, dram.Default().SubChannels)
	mits := make([]track.Mitigator, len(fans))
	for i := range fans {
		fans[i] = &fanOut{alerts: make([]int64, len(p.sets)), countOnly: p.countOnly}
		mits[i] = fans[i]
	}
	res := make([]replayResult, len(p.sets))
	defer func() {
		for _, s := range res {
			x.log.Merge(s.faults)
		}
	}()
	for k, set := range p.sets {
		res[k].faults = fault.NewLog()
		for i, m := range set {
			fans[i].members = append(fans[i].members, fault.Wrap(r.opts.Faults, m, faults+uint64(i), res[k].faults))
		}
	}
	run, err := replay.NewRunner(replay.Config{IPS: base.IPS}, gens, mits)
	if err != nil {
		return nil, err
	}
	// stats returns the Runner's counters as set k saw them: its own ALERTs.
	stats := func(k int) []replay.Stats {
		st := run.Stats()
		for i := range st {
			st[i].Alerts = fans[i].alerts[k]
		}
		return st
	}
	tREFW := dram.DDR5().TREFW
	run.Run(tREFW, nil)
	if p.afterWarm != nil {
		p.afterWarm()
	}
	if p.kind == warmPass {
		return res, nil
	}
	for k := range res {
		res[k].warm = stats(k)
	}
	// The measured windows run one tREFW at a time, so a canceled job
	// replays at most one more window; Run resumes exactly where it stopped.
	for w := 2; w <= windows; w++ {
		if err := stopped(w); err != nil {
			return nil, err
		}
		run.Run(dram.Time(w)*tREFW, p.obs)
	}
	for k := range res {
		res[k].measured = stats(k)
		for i, w := range res[k].warm {
			m := &res[k].measured[i]
			m.Accesses -= w.Accesses
			m.ACTs -= w.ACTs
			m.REFs -= w.REFs
			m.Alerts -= w.Alerts
		}
	}
	if reg := r.opts.Telemetry; reg.Enabled() {
		for i, f := range fans {
			for _, m := range f.members {
				track.FlushTelemetry(reg, m,
					telemetry.L("layer", "replay"), telemetry.L("sub", strconv.Itoa(i)))
			}
		}
	}
	return res, nil
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func d(v int64) string    { return strconv.FormatInt(v, 10) }

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}
