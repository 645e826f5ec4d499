package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// A canceled batch context stops cooperative jobs mid-run and keeps
// not-yet-started jobs from running at all, while still returning one
// Result per job in submission order.
func TestRunOnCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	js := make([]Job[int], 8)
	for i := range js {
		i := i
		js[i] = Job[int]{ID: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) (int, error) {
			started.Add(1)
			<-release
			<-ctx.Done()
			return 0, ctx.Err()
		}}
	}
	p := NewPool(Options{Parallelism: 2})
	go func() {
		for started.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(release)
	}()
	results := RunOnCtx(ctx, p, js)

	if len(results) != len(js) {
		t.Fatalf("got %d results, want %d", len(results), len(js))
	}
	canceled := 0
	for i, r := range results {
		if r.Skipped {
			continue
		}
		if !r.Canceled {
			t.Fatalf("result %d: not canceled: %+v", i, r)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d: err = %v, want context.Canceled", i, r.Err)
		}
		canceled++
	}
	if canceled == 0 {
		t.Fatal("no canceled results")
	}
	if got := p.Stats().Canceled; got != int64(canceled) {
		t.Fatalf("Stats().Canceled = %d, want %d", got, canceled)
	}
}

// A job that ignores its context is abandoned on cancellation, exactly as
// the per-job deadline abandons a stuck job.
func TestRunOnCtxAbandonsUncooperativeJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	block := make(chan struct{})
	defer close(block)
	js := []Job[int]{{ID: "stubborn", Run: func(context.Context) (int, error) {
		<-block
		return 1, nil
	}}}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	results := RunCtx(ctx, Options{Parallelism: 1}, js)
	if !results[0].Canceled || !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("result = %+v, want canceled", results[0])
	}
}

// The per-job deadline still reports ErrTimeout in the exact pre-context
// format, and is distinguishable from batch cancellation.
func TestPerJobDeadlineStillErrTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	js := []Job[int]{{ID: "stuck", Run: func(context.Context) (int, error) {
		<-block
		return 0, nil
	}}}
	results := RunCtx(context.Background(), Options{Parallelism: 1, Timeout: 20 * time.Millisecond}, js)
	if !errors.Is(results[0].Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", results[0].Err)
	}
	if results[0].Canceled {
		t.Fatalf("deadline must not mark Canceled: %+v", results[0])
	}
	want := fmt.Sprintf("job stuck: %v after %v", ErrTimeout, 20*time.Millisecond)
	if results[0].Err.Error() != want {
		t.Fatalf("err = %q, want %q", results[0].Err, want)
	}
}

// A cooperative job that returns its context's error because the per-job
// deadline fired (not the batch) reports ErrTimeout, not Canceled.
func TestCooperativeDeadlineMapsToErrTimeout(t *testing.T) {
	js := []Job[int]{{ID: "coop", Run: func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}}}
	results := RunCtx(context.Background(), Options{Parallelism: 1, Timeout: 10 * time.Millisecond}, js)
	if !errors.Is(results[0].Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", results[0].Err)
	}
	if results[0].Canceled {
		t.Fatalf("per-job deadline must not mark Canceled: %+v", results[0])
	}
}
