package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mirza/internal/telemetry"
)

func ids(n int) []Job[int] {
	js := make([]Job[int], n)
	for i := range js {
		i := i
		js[i] = Job[int]{ID: fmt.Sprintf("j%d", i), Run: func(context.Context) (int, error) { return i * i, nil }}
	}
	return js
}

func TestOrderedResultsAtAnyParallelism(t *testing.T) {
	for _, p := range []int{1, 2, 8, 0} {
		res := RunCtx(context.Background(), Options{Parallelism: p}, ids(37))
		if err := FirstError(res); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, v := range Values(res) {
			if v != i*i {
				t.Fatalf("p=%d: result %d = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if res := RunCtx(context.Background(), Options{}, []Job[string]{}); len(res) != 0 {
		t.Fatalf("empty job list: %v", res)
	}
	res := RunCtx(context.Background(), Options{Parallelism: 4}, []Job[string]{{ID: "one", Run: func(context.Context) (string, error) { return "ok", nil }}})
	if res[0].Value != "ok" || res[0].Err != nil || res[0].Duration < 0 {
		t.Fatalf("single job: %+v", res[0])
	}
}

func TestFailureSkipsLaterJobsSequentially(t *testing.T) {
	var ran int32
	js := make([]Job[int], 10)
	for i := range js {
		i := i
		js[i] = Job[int]{ID: fmt.Sprintf("j%d", i), Run: func(context.Context) (int, error) {
			atomic.AddInt32(&ran, 1)
			if i == 3 {
				return 0, errors.New("boom")
			}
			return i, nil
		}}
	}
	res := RunCtx(context.Background(), Options{Parallelism: 1}, js)
	if int(ran) != 4 {
		t.Errorf("sequential fail-fast ran %d jobs, want 4", ran)
	}
	err := FirstError(res)
	if err == nil || !strings.Contains(err.Error(), "j3") {
		t.Fatalf("first error = %v, want j3", err)
	}
	for i := 4; i < 10; i++ {
		if !res[i].Skipped {
			t.Errorf("job %d should be skipped after failure", i)
		}
	}
}

func TestLowestFailingIndexDeterministicInParallel(t *testing.T) {
	// Jobs 2 and 7 both fail; job 2 must always be the reported error
	// because jobs submitted before a failure always complete.
	js := make([]Job[int], 12)
	for i := range js {
		i := i
		js[i] = Job[int]{ID: fmt.Sprintf("j%d", i), Run: func(context.Context) (int, error) {
			if i == 2 || i == 7 {
				return 0, fmt.Errorf("fail-%d", i)
			}
			return i, nil
		}}
	}
	for trial := 0; trial < 20; trial++ {
		res := RunCtx(context.Background(), Options{Parallelism: 6}, js)
		err := FirstError(res)
		if err == nil || !strings.Contains(err.Error(), "fail-2") {
			t.Fatalf("trial %d: first error = %v, want fail-2", trial, err)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	js := []Job[int]{
		{ID: "ok", Run: func(context.Context) (int, error) { return 1, nil }},
		{ID: "boom", Run: func(context.Context) (int, error) { panic("deliberate") }},
	}
	res := RunCtx(context.Background(), Options{Parallelism: 2}, js)
	if res[0].Err != nil || res[0].Value != 1 {
		t.Fatalf("healthy job affected: %+v", res[0])
	}
	if res[1].Err == nil || !res[1].Panicked {
		t.Fatalf("panic not converted to error: %+v", res[1])
	}
	if !strings.Contains(res[1].Err.Error(), "deliberate") || !strings.Contains(res[1].Stack, "goroutine") {
		t.Errorf("panic diagnostics incomplete: err=%v stack=%q", res[1].Err, res[1].Stack)
	}
}

func TestPerJobTimeout(t *testing.T) {
	js := []Job[int]{
		{ID: "fast", Run: func(context.Context) (int, error) { return 7, nil }},
		{ID: "stuck", Run: func(context.Context) (int, error) { time.Sleep(2 * time.Second); return 0, nil }},
	}
	start := time.Now()
	res := RunCtx(context.Background(), Options{Parallelism: 1, Timeout: 50 * time.Millisecond}, js)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout did not abandon the stuck job (took %v)", elapsed)
	}
	if res[0].Err != nil || res[0].Value != 7 {
		t.Fatalf("fast job: %+v", res[0])
	}
	if !errors.Is(res[1].Err, ErrTimeout) {
		t.Fatalf("stuck job error = %v, want ErrTimeout", res[1].Err)
	}
}

func TestPoolStatsAccumulateAcrossBatches(t *testing.T) {
	p := NewPool(Options{Parallelism: 2})
	js := make([]Job[int], 6)
	for i := range js {
		i := i
		js[i] = Job[int]{ID: fmt.Sprintf("j%d", i), Run: func(context.Context) (int, error) {
			if i == 5 {
				return 0, errors.New("boom")
			}
			return i, nil
		}}
	}
	RunOnCtx(context.Background(), p, js)
	RunOnCtx(context.Background(), p, ids(4))
	s := p.Stats()
	if s.Submitted != 10 {
		t.Errorf("Submitted = %d, want 10", s.Submitted)
	}
	if s.Failed != 1 {
		t.Errorf("Failed = %d, want 1", s.Failed)
	}
	if s.Completed+s.Skipped != 9 {
		t.Errorf("Completed+Skipped = %d, want 9", s.Completed+s.Skipped)
	}
	if s.Ran() != s.Completed+s.Failed {
		t.Errorf("Ran() = %d, want %d", s.Ran(), s.Completed+s.Failed)
	}
	if s.BusyWorkers != 0 || s.QueueDepth != 0 {
		t.Errorf("idle pool reports busy=%d queue=%d", s.BusyWorkers, s.QueueDepth)
	}
	if s.Busy <= 0 {
		t.Errorf("Busy = %v, want > 0", s.Busy)
	}
}

func TestPoolTelemetryMirrors(t *testing.T) {
	reg := telemetry.New()
	p := NewPool(Options{Parallelism: 3, Telemetry: reg})
	js := make([]Job[int], 8)
	for i := range js {
		i := i
		js[i] = Job[int]{ID: fmt.Sprintf("j%d", i), Run: func(context.Context) (int, error) {
			time.Sleep(time.Millisecond)
			if i == 7 {
				return 0, errors.New("boom")
			}
			return i, nil
		}}
	}
	RunOnCtx(context.Background(), p, js)
	snap := reg.Snapshot()
	s := p.Stats()
	if got := snap.CounterTotal("jobs_submitted_total"); got != s.Submitted {
		t.Errorf("jobs_submitted_total = %d, want %d", got, s.Submitted)
	}
	if got := snap.CounterTotal("jobs_completed_total"); got != s.Completed {
		t.Errorf("jobs_completed_total = %d, want %d", got, s.Completed)
	}
	if got := snap.CounterTotal("jobs_failed_total"); got != s.Failed {
		t.Errorf("jobs_failed_total = %d, want %d", got, s.Failed)
	}
	if got := snap.CounterTotal("jobs_skipped_total"); got != s.Skipped {
		t.Errorf("jobs_skipped_total = %d, want %d", got, s.Skipped)
	}
	for _, g := range snap.Gauges {
		if g.Value != 0 {
			t.Errorf("gauge %s = %d after drain, want 0", g.Name, g.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "jobs_latency_ms" {
			if h.Total != s.Ran() {
				t.Errorf("jobs_latency_ms count = %d, want %d", h.Total, s.Ran())
			}
			if !h.WallClock {
				t.Error("jobs_latency_ms must be flagged wall-clock")
			}
		}
	}
}

func TestRunMatchesRunOnSemantics(t *testing.T) {
	// RunCtx is sugar over a fresh pool: the same jobs give the same
	// results through RunOnCtx on a pool of one's own.
	a := RunCtx(context.Background(), Options{Parallelism: 2}, ids(5))
	b := RunOnCtx(context.Background(), NewPool(Options{Parallelism: 2}), ids(5))
	if err := FirstError(a); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("RunCtx gave %d results, RunOnCtx %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Value != b[i].Value || a[i].Err != b[i].Err {
			t.Errorf("result %d: RunCtx %+v, RunOnCtx %+v", i, a[i], b[i])
		}
	}
}
