package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/fault"
	"mirza/internal/replay"
	"mirza/internal/sim"
	"mirza/internal/trace"
)

func quickOpts() Options {
	return Options{
		Seed:              1,
		Warmup:            50 * dram.Microsecond,
		Measure:           150 * dram.Microsecond,
		ReplayWindows:     2,
		CalibrationWindow: 150 * dram.Microsecond,
		Workloads:         []string{"xz"},
	}
}

func TestHarnessPanicRecovery(t *testing.T) {
	s := NewSuite(quickOpts(), SuiteConfig{NoRetry: true})
	res := s.Run(context.Background(), Experiment{
		ID: "boom",
		Run: func(r *Runner) (*Table, error) {
			panic("deliberate test panic")
		},
	})
	if !res.Failed() || !res.Panicked {
		t.Fatalf("want panicked failure, got %+v", res)
	}
	if !strings.Contains(res.Err.Error(), "deliberate test panic") {
		t.Errorf("error lacks panic value: %v", res.Err)
	}
	if !strings.Contains(res.Stack, "goroutine") {
		t.Errorf("stack trace missing: %q", res.Stack)
	}
	if s.runner != nil {
		t.Error("failed attempt must discard the shared runner")
	}
}

// replayPanicGen is a trace generator that panics once it has produced a
// few thousand ops, which the replay runner draws on a goroutine of its own.
type replayPanicGen struct {
	trace.Generator
	calls int
}

func (g *replayPanicGen) Next(op *trace.Op) {
	if g.calls++; g.calls == 5000 {
		panic("deliberate generator panic")
	}
	g.Generator.Next(op)
}

// TestHarnessReplayGeneratorPanic drives a replay whose generator panics
// through the Suite: the panic crosses from the replay's producer goroutine
// to the job that called Run, the experiment fails with the panic value,
// and no goroutine is left behind.
func TestHarnessReplayGeneratorPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSuite(quickOpts(), SuiteConfig{NoRetry: true})
	res := s.Run(context.Background(), Experiment{
		ID: "genboom",
		Run: func(r *Runner) (*Table, error) {
			_, err := runJobs(r, []job[int]{{
				id: "genboom/replay",
				run: func(x *Exec) (int, error) {
					spec, err := trace.Lookup("xz")
					if err != nil {
						return 0, err
					}
					gens, err := trace.PerCore(spec, 4, 1)
					if err != nil {
						return 0, err
					}
					gens[1] = &replayPanicGen{Generator: gens[1]}
					run, err := replay.NewRunner(replay.Config{IPS: spec.ImpliedIPS()}, gens, nil)
					if err != nil {
						return 0, err
					}
					run.Run(dram.DDR5().TREFW, nil)
					return 0, nil
				},
			}})
			if err != nil {
				return nil, err
			}
			return &Table{ID: "genboom"}, nil
		},
	})
	if !res.Failed() {
		t.Fatalf("want a failed experiment, got %+v", res)
	}
	if !strings.Contains(res.Err.Error(), "deliberate generator panic") {
		t.Errorf("error lacks the generator's panic value: %v", res.Err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed experiment, %d before", n, before)
	}
}

func TestHarnessTimeout(t *testing.T) {
	// The suite deadline is enforced per engine job: a stuck simulation
	// job is abandoned and its experiment fails with ErrTimeout.
	s := NewSuite(quickOpts(), SuiteConfig{Timeout: 30 * time.Millisecond, NoRetry: true})
	res := s.Run(context.Background(), Experiment{
		ID: "slow",
		Run: func(r *Runner) (*Table, error) {
			_, err := runJobs(r, []job[int]{{
				id: "slow/stuck",
				run: func(x *Exec) (int, error) {
					time.Sleep(500 * time.Millisecond)
					return 0, nil
				},
			}})
			if err != nil {
				return nil, err
			}
			return &Table{ID: "slow"}, nil
		},
	})
	if !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", res.Err)
	}
	if res.Panicked || res.Table != nil {
		t.Fatalf("unexpected result: %+v", res)
	}
	if s.runner != nil {
		t.Error("timed-out attempt must discard the shared runner")
	}
}

func TestHarnessDegradedRetry(t *testing.T) {
	opts := quickOpts()
	s := NewSuite(opts, SuiteConfig{})
	res := s.Run(context.Background(), Experiment{
		ID: "flaky",
		Run: func(r *Runner) (*Table, error) {
			if r.Options().Measure == opts.Measure {
				return nil, fmt.Errorf("full fidelity fails")
			}
			return &Table{ID: "flaky", Title: "ok", Columns: []string{"c"}}, nil
		},
	})
	if res.Failed() {
		t.Fatalf("degraded retry should have succeeded: %v", res.Err)
	}
	if !res.Degraded || res.Attempts != 2 {
		t.Fatalf("want degraded 2-attempt result, got %+v", res)
	}
	found := false
	for _, n := range res.Table.Notes {
		if strings.Contains(n, "DEGRADED") {
			found = true
		}
	}
	if !found {
		t.Errorf("degraded table lacks the DEGRADED note: %v", res.Table.Notes)
	}
}

func TestHarnessRetryBothFail(t *testing.T) {
	s := NewSuite(quickOpts(), SuiteConfig{})
	res := s.Run(context.Background(), Experiment{
		ID:  "hopeless",
		Run: func(r *Runner) (*Table, error) { return nil, fmt.Errorf("always fails") },
	})
	if !res.Failed() || res.Degraded {
		t.Fatalf("want plain failure, got %+v", res)
	}
	if !strings.Contains(res.Err.Error(), "degraded retry also failed") {
		t.Errorf("error should mention the failed retry: %v", res.Err)
	}
}

func TestHarnessCanceledContext(t *testing.T) {
	s := NewSuite(quickOpts(), SuiteConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := s.Run(ctx, Experiment{
		ID: "doomed",
		Run: func(r *Runner) (*Table, error) {
			_, err := runJobs(r, []job[int]{{
				id:  "doomed/job",
				run: func(x *Exec) (int, error) { return 0, nil },
			}})
			if err != nil {
				return nil, err
			}
			return &Table{ID: "doomed"}, nil
		},
	})
	if !res.Failed() || !res.Canceled {
		t.Fatalf("want canceled failure, got %+v", res)
	}
	if res.Attempts != 1 || res.Degraded {
		t.Fatalf("cancellation must never be retried: %+v", res)
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("error should wrap context.Canceled: %v", res.Err)
	}
}

func TestRunAllAndSummarize(t *testing.T) {
	s := NewSuite(quickOpts(), SuiteConfig{NoRetry: true})
	results := s.RunAll(context.Background(), []string{"table1", "no-such-experiment"})
	if len(results) != 2 {
		t.Fatalf("want 2 results, got %d", len(results))
	}
	if results[0].Failed() {
		t.Fatalf("table1 should succeed: %v", results[0].Err)
	}
	if !results[1].Failed() {
		t.Fatal("unknown id should fail")
	}
	sum := Summarize(results)
	if sum.OK != 1 || sum.Failed != 1 || sum.Degraded != 0 {
		t.Fatalf("bad summary: %+v", sum)
	}
	if sum.Clean() {
		t.Error("summary with a failure is not clean")
	}
	if !strings.Contains(sum.String(), "FAIL no-such-experiment") {
		t.Errorf("summary lacks failure line: %q", sum.String())
	}
}

func TestSummarizeDetectsStalls(t *testing.T) {
	stall := &sim.StallError{Now: 5 * dram.Microsecond, Stalled: time.Second, Pending: 3}
	results := []Result{{ID: "x", Err: fmt.Errorf("experiment x: %w", stall)}}
	sum := Summarize(results)
	if sum.Stalled != 1 {
		t.Fatalf("watchdog stall not detected: %+v", sum)
	}
}

// replayMitigations measures xz through MIRZA-500 on the replayer under
// opts, returning serviced ALERTs and mitigations plus the fault log.
func replayMitigations(t *testing.T, opts Options) (alerts, mitig int64, log *fault.Log) {
	t.Helper()
	r := NewRunner(opts)
	x := r.newExec()
	cfg, err := core.ForTRHD(500)
	if err != nil {
		t.Fatal(err)
	}
	sets, res, err := x.replayMirza("xz", []core.Config{cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res[0].measured {
		alerts += s.Alerts
	}
	for _, m := range sets[0] {
		mitig += m.Stats.Mitigations
	}
	return alerts, mitig, x.log
}

// TestReplayCanceled: a replay pass whose job context is already canceled
// returns context.Canceled, naming the workload and the phase, without
// computing a baseline or replaying an activation.
func TestReplayCanceled(t *testing.T) {
	r := NewRunner(quickOpts())
	x := r.newExec()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x.ctx = ctx
	cfg, err := core.ForTRHD(1000)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := mirzaMits([]core.Config{cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind  passKind
		phase string
	}{{warmPass, "warm-up"}, {measurePass, "measured"}} {
		_, err := x.replay("xz", replayPass{kind: tc.kind, sets: asSets(sets)})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s pass: got %v, want context.Canceled", tc.phase, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "xz") || !strings.Contains(msg, tc.phase) {
			t.Errorf("error does not name the workload and the %s phase: %v", tc.phase, err)
		}
	}
	for i, m := range sets[0] {
		if m.Stats.ACTs != 0 {
			t.Errorf("sub-channel %d saw %d ACTs under a canceled context", i, m.Stats.ACTs)
		}
	}
	r.mu.Lock()
	calibrations := r.calibrations["xz"]
	r.mu.Unlock()
	if calibrations != 0 {
		t.Errorf("a canceled replay computed the xz baseline %d times", calibrations)
	}
}

// TestReplayCanceledBetweenWindows: a job canceled during the unmeasured
// first window stops before the measured windows.
func TestReplayCanceledBetweenWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a refresh window")
	}
	x := NewRunner(quickOpts()).newExec()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	x.ctx = ctx
	var measured int
	_, err := x.replay("xz", replayPass{
		kind:      measurePass,
		afterWarm: cancel,
		obs:       func(sub, bank, row int, now dram.Time) { measured++ },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "window 2 of 2") {
		t.Errorf("error does not name the window it stopped before: %v", err)
	}
	if measured != 0 {
		t.Errorf("%d measured ACTs replayed after the cancel", measured)
	}
}

func TestEmptyPlanIsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs are slow")
	}
	// A zero plan and a plan with only a seed (still empty: no rates) must
	// leave the whole pipeline untouched and deterministic.
	optsA := quickOpts()
	optsB := quickOpts()
	optsB.Faults = fault.Plan{Seed: 99}
	aAlerts, aMitig, aLog := replayMitigations(t, optsA)
	bAlerts, bMitig, bLog := replayMitigations(t, optsB)
	if aAlerts != bAlerts || aMitig != bMitig {
		t.Fatalf("empty plan changed outputs: alerts %d vs %d, mitigations %d vs %d",
			aAlerts, bAlerts, aMitig, bMitig)
	}
	if aLog.Total() != 0 || bLog.Total() != 0 {
		t.Fatalf("empty plans must inject nothing: %d / %d", aLog.Total(), bLog.Total())
	}
	if aMitig == 0 {
		t.Fatal("expected some mitigations at TRHD=500 (test is vacuous otherwise)")
	}
}

func TestFaultPlanDegradesMitigation(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs are slow")
	}
	clean := quickOpts()
	faulted := quickOpts()
	faulted.Faults = fault.Plan{Seed: 7, AlertDropRate: 1, DropACTs: 100000}
	cAlerts, cMitig, _ := replayMitigations(t, clean)
	fAlerts, fMitig, fLog := replayMitigations(t, faulted)
	if cAlerts == 0 || cMitig == 0 {
		t.Fatalf("clean run shows no mitigation activity (alerts=%d mitig=%d)", cAlerts, cMitig)
	}
	if fAlerts >= cAlerts {
		t.Errorf("dropping every ALERT did not reduce serviced alerts: %d vs %d", fAlerts, cAlerts)
	}
	if fMitig >= cMitig {
		t.Errorf("dropping every ALERT did not reduce mitigations: %d vs %d", fMitig, cMitig)
	}
	if fLog.Count(fault.AlertDrop) == 0 {
		t.Error("fault log recorded no alert drops")
	}
	// Same faulted plan twice: identical degraded outcome (determinism).
	fAlerts2, fMitig2, fLog2 := replayMitigations(t, faulted)
	if fAlerts != fAlerts2 || fMitig != fMitig2 || fLog.Total() != fLog2.Total() {
		t.Errorf("faulted run not deterministic: alerts %d/%d mitig %d/%d faults %d/%d",
			fAlerts, fAlerts2, fMitig, fMitig2, fLog.Total(), fLog2.Total())
	}
	if !reflect.DeepEqual(fLog.Events(), fLog2.Events()) {
		t.Error("fault event sequences differ between identical runs")
	}
}
