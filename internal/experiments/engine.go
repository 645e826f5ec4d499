package experiments

// The job engine: every experiment decomposes into independent jobs (one
// self-contained (workload, timing, mitigator-factory, seed) simulation
// each) executed on a worker pool of Options.Parallelism workers.
//
// Determinism contract (DESIGN.md §9):
//
//   - Jobs are enumerated in the same order the old sequential engine
//     iterated its loops, and results are gathered in submission order, so
//     aggregation (including floating-point accumulation) is bit-identical
//     at any parallelism.
//   - Every RNG stream a job consumes is keyed by the job's identity
//     (workload spec, sub-channel index, fixed stream ids folded into
//     Options.Seed), never by execution order.
//   - Each job writes injected faults to its own fault.Log; the engine
//     merges the logs into Runner.FaultLog in submission order, which
//     reproduces the sequential log exactly (both are prefix-truncations
//     at the same retention cap).
//   - Shared per-workload state (baselines, MLP calibration) lives behind
//     the Runner's single-flight layer, and its computation draws only on
//     job-order-independent streams.
//
// With Parallelism == 1 the pool degrades to the strictly sequential
// engine: same execution order, same fail-fast behaviour, same output
// bytes.

import (
	"context"
	"errors"

	"mirza/internal/jobs"
	"mirza/internal/trace"
)

// job is one experiment-internal unit of work producing a T.
type job[T any] struct {
	id  string
	run func(x *Exec) (T, error)
}

// workloadJobs returns one job per workload, each named prefix/<workload>
// and running run on that workload.
func workloadJobs[T any](prefix string, specs []trace.WorkloadSpec, run func(x *Exec, name string) (T, error)) []job[T] {
	js := make([]job[T], len(specs))
	for i, spec := range specs {
		name := spec.Name
		js[i] = job[T]{id: prefix + "/" + name, run: func(x *Exec) (T, error) { return run(x, name) }}
	}
	return js
}

// runJobs executes experiment jobs on the engine and gathers their values
// in submission order. Each job receives a fresh Exec (job-isolated fault
// log); the logs of all jobs that ran are merged into the runner's shared
// log in submission order. The returned error is the lowest-submission-
// index failure, matching a sequential fail-fast loop.
func runJobs[T any](r *Runner, js []job[T]) ([]T, error) {
	execs := make([]*Exec, len(js))
	pool := make([]jobs.Job[T], len(js))
	for i := range js {
		i := i
		execs[i] = r.newExec()
		pool[i] = jobs.Job[T]{
			ID: js[i].id,
			Run: func(ctx context.Context) (T, error) {
				execs[i].ctx = ctx
				return js[i].run(execs[i])
			},
		}
	}
	results := jobs.RunOnCtx(r.context(), r.pool, pool)
	for i := range results {
		if results[i].Skipped || results[i].Canceled {
			continue
		}
		// A timed-out job was abandoned: its goroutine may still be
		// writing the job log, so that log must not be touched. (A
		// canceled job's goroutine may likewise still be unwinding.)
		if !errors.Is(results[i].Err, jobs.ErrTimeout) {
			r.faultLog.Merge(execs[i].log)
		}
	}
	if err := jobs.FirstError(results); err != nil {
		return nil, err
	}
	return jobs.Values(results), nil
}
