package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"mirza/internal/jobs"
	"mirza/internal/sim"
)

// Result is the outcome of one hardened experiment run.
type Result struct {
	ID    string
	Table *Table // nil when the experiment failed outright

	// Err is the terminal error (nil on success, including degraded
	// success). Panics are converted to errors; Stack then carries the
	// recovered goroutine's stack trace.
	Err      error
	Panicked bool
	Stack    string

	// Degraded marks a result produced by the reduced-fidelity retry
	// after the full-fidelity attempt failed. Degraded tables carry a
	// "DEGRADED" note and must not be compared against full-fidelity runs.
	Degraded bool

	// Canceled marks a failure observed after the suite context was done:
	// the experiment was cut short (or never started) by cancellation or a
	// deadline rather than failing on its own. Served jobs use it to
	// report "canceled" instead of a generic failure, and cancellation is
	// never retried, so a Canceled result is always attempt 1's.
	Canceled bool

	// Attempts is how many attempts were made (1 or 2).
	Attempts int
	Duration time.Duration

	// Jobs is how many engine jobs the experiment ran; Busy is their
	// summed wall-clock — an estimate of a one-worker (-j 1) run's
	// duration, used to report parallel speedup.
	Jobs int
	Busy time.Duration
}

// Failed reports whether the experiment produced no usable table.
func (r Result) Failed() bool { return r.Err != nil }

// ErrTimeout is wrapped into Result.Err when an engine job exceeds the
// suite's per-job deadline. It aliases jobs.ErrTimeout so errors.Is
// matches at either layer.
var ErrTimeout = jobs.ErrTimeout

// SuiteConfig tunes the hardened runner. The per-job deadline is
// Options.JobTimeout, enforced inside the job pool: a stuck simulation is
// abandoned and only its job fails, scaling naturally with
// Options.Parallelism instead of racing one shared per-experiment clock.
type SuiteConfig struct {
	// NoRetry disables the reduced-fidelity retry after a failed attempt.
	NoRetry bool

	// Logf receives harness progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Suite runs experiments with panic isolation, per-experiment deadlines
// and graceful degradation. A panicking or timed-out experiment becomes an
// error Result instead of taking the process down; after such a failure
// the shared Runner is discarded (a timed-out attempt's goroutine may
// still be mutating it) and subsequent experiments get a fresh one.
type Suite struct {
	opts   Options
	cfg    SuiteConfig
	runner *Runner
}

// NewSuite builds a hardened runner over opts.
func NewSuite(opts Options, cfg SuiteConfig) *Suite {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Suite{opts: opts, cfg: cfg}
}

// Runner returns the current shared Runner, building it on first use.
// After a failed attempt the previous Runner has been discarded, so
// callers must not cache the returned pointer across Run calls.
func (s *Suite) Runner() *Runner {
	if s.runner == nil {
		s.runner = NewRunner(s.opts)
	}
	return s.runner
}

// RunAll looks up and runs each experiment id in order, never panicking
// and never returning early: every id yields exactly one Result. A
// canceled ctx stops running simulations cooperatively; remaining ids
// still yield Results (failing fast with the context's error).
func (s *Suite) RunAll(ctx context.Context, ids []string) []Result {
	out := make([]Result, 0, len(ids))
	for _, id := range ids {
		exp, err := Lookup(id)
		if err != nil {
			out = append(out, Result{ID: id, Err: err, Attempts: 0})
			continue
		}
		out = append(out, s.Run(ctx, exp))
	}
	return out
}

// Run executes one experiment under the harness: the attempt runs in its
// own goroutine with panic recovery and the configured deadline; on
// failure the experiment is retried once at reduced fidelity (halved
// measurement window, halved replay windows) and the result flagged
// Degraded.
func (s *Suite) Run(ctx context.Context, exp Experiment) Result {
	start := time.Now()
	res := Result{ID: exp.ID, Attempts: 1}

	a := s.attempt(ctx, exp, s.Runner())
	res.Table, res.Err, res.Panicked, res.Stack = a.table, a.err, a.panicked, a.stack
	res.Jobs, res.Busy = a.jobs, a.busy
	if res.Err == nil {
		res.Duration = time.Since(start)
		return res
	}

	// The failed attempt may have left the Runner mid-mutation (a
	// timed-out goroutine is still running against it); replace it.
	s.runner = nil
	if ctx.Err() != nil {
		// A canceled suite must not burn time on retries.
		res.Canceled = true
		res.Duration = time.Since(start)
		return res
	}
	s.cfg.Logf("%s failed (%v); %s", exp.ID, res.Err, map[bool]string{true: "no retry", false: "retrying at reduced fidelity"}[s.cfg.NoRetry])
	if s.cfg.NoRetry {
		res.Duration = time.Since(start)
		return res
	}

	res.Attempts = 2
	retry := s.attempt(ctx, exp, NewRunner(s.degradedOptions()))
	res.Jobs += retry.jobs
	res.Busy += retry.busy
	if retry.err != nil {
		// Keep the first attempt's error as primary; note the retry's.
		res.Err = fmt.Errorf("%w (degraded retry also failed: %v)", res.Err, retry.err)
		res.Duration = time.Since(start)
		return res
	}
	firstErr := res.Err
	res.Table, res.Err, res.Panicked, res.Stack = retry.table, nil, false, ""
	res.Degraded = true
	if res.Table != nil {
		res.Table.Notes = append(res.Table.Notes,
			fmt.Sprintf("DEGRADED: full-fidelity attempt failed (%v); rerun at halved fidelity", firstErr))
	}
	res.Duration = time.Since(start)
	return res
}

// degradedOptions halves the expensive fidelity knobs for the retry.
func (s *Suite) degradedOptions() Options {
	o := s.opts
	o.Measure /= 2
	o.Warmup /= 2
	if o.ReplayWindows > 2 {
		o.ReplayWindows = max(2, o.ReplayWindows/2)
	}
	return o
}

type attemptOutcome struct {
	table    *Table
	err      error
	panicked bool
	stack    string
	jobs     int
	busy     time.Duration
}

// attempt runs the experiment once through the Runner's table memo,
// converting a panic into an error with a stack trace. Deadlines are
// enforced per job inside the engine (see Options.JobTimeout); a
// timed-out job surfaces here as an ordinary experiment error wrapping
// ErrTimeout. The recover backstops panics in enumeration/aggregation
// code — panics inside jobs are already converted by the pool.
func (s *Suite) attempt(ctx context.Context, exp Experiment, runner *Runner) (out attemptOutcome) {
	runner.WithContext(ctx)
	j0, b0 := runner.JobStats()
	defer func() {
		if p := recover(); p != nil {
			out = attemptOutcome{
				err:      fmt.Errorf("experiment %s panicked: %v", exp.ID, p),
				panicked: true,
				stack:    string(debug.Stack()),
			}
		}
		j1, b1 := runner.JobStats()
		out.jobs, out.busy = j1-j0, b1-b0
	}()
	t, err := runner.table(exp.ID, exp.Run)
	if err != nil {
		err = fmt.Errorf("experiment %s: %w", exp.ID, err)
	}
	return attemptOutcome{table: t, err: err}
}

// Summary aggregates a batch of Results.
type Summary struct {
	OK       int
	Degraded int
	Failed   int
	Stalled  int // failures whose cause was a watchdog stall
	Errors   []string
}

// Summarize folds results into a Summary.
func Summarize(results []Result) Summary {
	var s Summary
	for _, r := range results {
		switch {
		case r.Failed():
			s.Failed++
			var stall *sim.StallError
			if errors.As(r.Err, &stall) {
				s.Stalled++
			}
			s.Errors = append(s.Errors, fmt.Sprintf("%s: %v", r.ID, r.Err))
		case r.Degraded:
			s.Degraded++
		default:
			s.OK++
		}
	}
	return s
}

// Clean reports whether every experiment succeeded at full fidelity.
func (s Summary) Clean() bool { return s.Failed == 0 && s.Degraded == 0 }

// String renders a one-line summary plus one line per failure.
func (s Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d ok, %d degraded, %d failed", s.OK, s.Degraded, s.Failed)
	if s.Stalled > 0 {
		fmt.Fprintf(&sb, " (%d stalled)", s.Stalled)
	}
	for _, e := range s.Errors {
		fmt.Fprintf(&sb, "\n  FAIL %s", e)
	}
	return sb.String()
}
