// Package jobs provides a deterministic worker pool for embarrassingly
// parallel simulation jobs.
//
// The experiment pipeline decomposes into independent units — one
// (workload, timing, mitigator-factory, seed) simulation each — whose
// results must not depend on how many workers execute them. The pool
// therefore guarantees:
//
//   - Results are gathered in submission order, whatever order jobs
//     finish in. Aggregation done over the returned slice is identical at
//     any parallelism (including floating-point accumulation order).
//   - A failure at submission index i prevents jobs after i that have not
//     yet started from starting (they are marked Skipped). Jobs submitted
//     before i always run to completion, so the lowest failing index — and
//     with one worker the exact fail-fast behaviour of a sequential loop —
//     is deterministic.
//   - A panicking job becomes an error Result carrying the recovered stack
//     instead of taking down the process.
//   - An optional per-job wall-clock deadline abandons a stuck job (its
//     goroutine keeps running against job-local state) and reports
//     ErrTimeout, so one livelocked simulation cannot hang a whole sweep.
//
// Jobs must be self-contained: shared state they touch has to be safe for
// concurrent use (see the single-flight calibration layer in
// internal/experiments for the canonical pattern).
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mirza/internal/telemetry"
)

// ErrTimeout is wrapped into a Result's Err when a job exceeds the
// per-job deadline.
var ErrTimeout = errors.New("job deadline exceeded")

// Job is one independent unit of work. Run must be a pure function of the
// job's identity (plus concurrency-safe shared caches): the pool may
// execute it on any worker at any time before its result is gathered.
type Job[T any] struct {
	// ID names the job in errors ("fig3/mcf/trhd=500/mint").
	ID string

	// Run produces the job's result. It is called at most once. The
	// context carries the batch's cancellation plus the per-job deadline;
	// long-running jobs should poll it at convenient checkpoints
	// (sim.Kernel.RunUntilCtx does) so cancellation is cooperative rather
	// than only abandoning the goroutine.
	Run func(ctx context.Context) (T, error)
}

// Result is the outcome of one job, reported at the job's submission
// index.
type Result[T any] struct {
	ID    string
	Value T
	Err   error

	// Skipped marks a job that never started because an earlier-indexed
	// job had already failed.
	Skipped bool

	// Canceled marks a job stopped by the batch context — either never
	// started (Duration zero) or cut off mid-run. Err then wraps
	// ctx.Err(). Cancellation is wall-clock dependent, so a canceled
	// batch makes no determinism promises beyond result ordering.
	Canceled bool

	// Panicked marks an Err produced from a recovered panic; Stack then
	// carries the goroutine's stack trace.
	Panicked bool
	Stack    string

	// Duration is the job's wall-clock execution time (zero if skipped).
	Duration time.Duration
}

// Options tunes a pool.
type Options struct {
	// Parallelism is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	// 1 reproduces a strictly sequential loop exactly.
	Parallelism int

	// Timeout, when positive, bounds each job's wall-clock execution. A
	// job that exceeds it is abandoned and reported with ErrTimeout.
	Timeout time.Duration

	// Telemetry, when non-nil, mirrors the pool's accounting into the
	// registry: jobs_{submitted,completed,failed,skipped}_total counters,
	// jobs_{queue_depth,busy_workers} gauges, and the wall-clock
	// jobs_latency_ms histogram / jobs_busy_ms_total counter. Live
	// endpoints read these while a suite runs.
	Telemetry *telemetry.Registry
}

// PoolStats is a snapshot of a pool's accounting, valid across concurrent
// RunOnCtx batches. Busy sums the wall-clock execution time of every job that
// ran — an estimate of what a one-worker run would need.
type PoolStats struct {
	Submitted int64 // jobs handed to RunOnCtx
	Completed int64 // jobs that ran and returned without error
	Failed    int64 // jobs that ran and errored (incl. panics and timeouts)
	Skipped   int64 // jobs never started because an earlier index failed
	Canceled  int64 // jobs stopped by the batch context

	BusyWorkers int64 // jobs executing right now
	QueueDepth  int64 // jobs submitted but not yet started

	Busy time.Duration
}

// Ran returns how many jobs actually executed.
func (s PoolStats) Ran() int64 { return s.Completed + s.Failed }

// Pool executes job batches and accounts for them. One Pool may serve many
// RunOnCtx calls (sequentially or concurrently); its counters accumulate over
// its whole lifetime, which is what makes Stats the single source of truth
// for "jobs run / busy time / speedup" reporting.
type Pool struct {
	opts Options

	submitted, completed, failed, skipped, canceled atomic.Int64
	busyWorkers, queueDepth                         atomic.Int64
	busyNS                                          atomic.Int64

	// telemetry mirrors (nil handles when Options.Telemetry is nil).
	mSubmitted, mCompleted, mFailed, mSkipped, mCanceled *telemetry.Counter
	mBusyMS                                              *telemetry.Counter
	gBusy, gQueue                                        *telemetry.Gauge
	hLatency                                             *telemetry.Histogram
}

// NewPool builds a pool over opts.
func NewPool(opts Options) *Pool {
	p := &Pool{opts: opts}
	reg := opts.Telemetry
	p.mSubmitted = reg.Counter("jobs_submitted_total")
	p.mCompleted = reg.Counter("jobs_completed_total")
	p.mFailed = reg.Counter("jobs_failed_total")
	p.mSkipped = reg.Counter("jobs_skipped_total")
	p.mCanceled = reg.Counter("jobs_canceled_total")
	p.mBusyMS = reg.WallCounter("jobs_busy_ms_total")
	p.gBusy = reg.Gauge("jobs_busy_workers")
	p.gQueue = reg.Gauge("jobs_queue_depth")
	// 100ms buckets up to 12s, overflow clamped into the last bucket.
	p.hLatency = reg.WallHistogram("jobs_latency_ms", 120, 100)
	return p
}

// Stats snapshots the pool's accounting.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Submitted:   p.submitted.Load(),
		Completed:   p.completed.Load(),
		Failed:      p.failed.Load(),
		Skipped:     p.skipped.Load(),
		Canceled:    p.canceled.Load(),
		BusyWorkers: p.busyWorkers.Load(),
		QueueDepth:  p.queueDepth.Load(),
		Busy:        time.Duration(p.busyNS.Load()),
	}
}

// RunCtx executes jobs on a fresh single-batch pool under ctx: see
// RunOnCtx.
func RunCtx[T any](ctx context.Context, opts Options, jobs []Job[T]) []Result[T] {
	return RunOnCtx(ctx, NewPool(opts), jobs)
}

// RunOnCtx executes a batch of jobs on pool p, folding the batch into p's
// accounting, and returns one Result per job in submission order. It never
// panics and always returns len(jobs) results. When ctx is canceled (or
// its deadline passes), running jobs see it through their Run context and
// not-yet-started jobs are returned as Canceled without running; the
// results still gather in submission order.
func RunOnCtx[T any](ctx context.Context, p *Pool, jobs []Job[T]) []Result[T] {
	n := len(jobs)
	results := make([]Result[T], n)
	if n == 0 {
		return results
	}
	workers := p.opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	p.submitted.Add(int64(n))
	p.mSubmitted.Add(int64(n))
	p.queueDepth.Add(int64(n))
	p.gQueue.Add(int64(n))

	// minFail is the lowest submission index that has failed so far
	// (n = none). Jobs with a higher index that have not started yet are
	// skipped; lower-indexed jobs are unaffected, so the final value is
	// independent of worker count.
	minFail := int64(n)

	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				p.queueDepth.Add(-1)
				p.gQueue.Add(-1)
				if int64(i) > atomic.LoadInt64(&minFail) {
					results[i] = Result[T]{ID: jobs[i].ID, Skipped: true}
					p.skipped.Add(1)
					p.mSkipped.Inc()
					continue
				}
				if ctx.Err() != nil {
					results[i] = Result[T]{
						ID:       jobs[i].ID,
						Err:      fmt.Errorf("job %s: %w", jobs[i].ID, ctx.Err()),
						Canceled: true,
					}
					p.canceled.Add(1)
					p.mCanceled.Inc()
					storeMin(&minFail, int64(i))
					continue
				}
				p.busyWorkers.Add(1)
				p.gBusy.Add(1)
				results[i] = execute(ctx, jobs[i], p.opts.Timeout)
				p.busyWorkers.Add(-1)
				p.gBusy.Add(-1)
				d := results[i].Duration
				p.busyNS.Add(int64(d))
				p.mBusyMS.Add(d.Milliseconds())
				p.hLatency.Observe(float64(d) / float64(time.Millisecond))
				switch {
				case results[i].Canceled:
					p.canceled.Add(1)
					p.mCanceled.Inc()
					storeMin(&minFail, int64(i))
				case results[i].Err != nil:
					p.failed.Add(1)
					p.mFailed.Inc()
					storeMin(&minFail, int64(i))
				default:
					p.completed.Add(1)
					p.mCompleted.Inc()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// execute runs one job in its own goroutine so a deadline or cancellation
// can abandon it; panics are converted to errors. The job's context layers
// the per-job deadline over the batch context, so cooperative jobs stop on
// whichever fires first; uncooperative ones are abandoned (they only touch
// job-local state and their eventual send lands in the buffered channel).
func execute[T any](ctx context.Context, job Job[T], timeout time.Duration) Result[T] {
	start := time.Now()
	jctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	done := make(chan Result[T], 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- Result[T]{
					ID:       job.ID,
					Err:      fmt.Errorf("job %s panicked: %v", job.ID, p),
					Panicked: true,
					Stack:    string(debug.Stack()),
				}
			}
		}()
		v, err := job.Run(jctx)
		res := Result[T]{ID: job.ID, Value: v, Err: err}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				res.Canceled = ctx.Err() != nil
				if !res.Canceled {
					// The per-job deadline, reported in timeout terms.
					res.Err = fmt.Errorf("job %s: %w after %v", job.ID, ErrTimeout, timeout)
					done <- res
					return
				}
			}
			res.Err = fmt.Errorf("job %s: %w", job.ID, err)
		}
		done <- res
	}()

	var res Result[T]
	if jctx.Done() == nil {
		res = <-done
	} else {
		select {
		case res = <-done:
		case <-jctx.Done():
			if ctx.Err() != nil {
				res = Result[T]{
					ID:       job.ID,
					Err:      fmt.Errorf("job %s: %w", job.ID, ctx.Err()),
					Canceled: true,
				}
			} else {
				res = Result[T]{ID: job.ID, Err: fmt.Errorf("job %s: %w after %v", job.ID, ErrTimeout, timeout)}
			}
		}
	}
	res.Duration = time.Since(start)
	return res
}

// storeMin atomically lowers *addr to v if v is smaller.
func storeMin(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v >= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// FirstError returns the error of the lowest-indexed failed result (nil
// when every job succeeded). Skipped results never carry errors, so this
// is the same error a sequential fail-fast loop would have returned.
func FirstError[T any](results []Result[T]) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// Values extracts the result values in submission order. It must only be
// used after FirstError returned nil (skipped/failed slots hold zero
// values).
func Values[T any](results []Result[T]) []T {
	out := make([]T, len(results))
	for i := range results {
		out[i] = results[i].Value
	}
	return out
}
