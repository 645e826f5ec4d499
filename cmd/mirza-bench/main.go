// Command mirza-bench regenerates the tables and figures of the MIRZA paper
// (HPCA 2026) from the simulator in this repository.
//
// Usage:
//
//	mirza-bench -list
//	mirza-bench -exp table8
//	mirza-bench -exp all -measure-ms 1.5 -workloads fotonik3d,lbm,mcf
//	mirza-bench -exp table8 -faults seed=7,alertdrop=0.5 -timeout 10m
//	mirza-bench -exp intervm -tenants xz:6+attack=edge:2
//	mirza-bench -exp tracereplay -trace examples/traces/stream.trace
//
// Scale flags trade fidelity for time; with no flags the full 24-workload
// Table IV set and the default windows are used (see DESIGN.md for the
// methodology and EXPERIMENTS.md for recorded paper-vs-measured results).
//
// Experiments run under a hardened harness: a panicking or deadline-blown
// experiment is isolated, retried once at reduced fidelity (the result is
// then marked DEGRADED), and summarized instead of killing the run.
// Exit codes: 0 all clean, 1 at least one experiment failed, 3 all
// succeeded but at least one only at degraded fidelity.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"mirza/internal/cliflags"
	"mirza/internal/experiments"
	"mirza/internal/serve"
	"mirza/internal/telemetry"
)

// scaleWindows applies the -measure-ms, -warmup-ms and -replay-windows
// overrides to opts. A zero keeps the default; any other value must pass
// the shared window checks.
func scaleWindows(opts experiments.Options, measureMS, warmupMS float64, windows int) (experiments.Options, error) {
	measure, err := cliflags.WindowMS("-measure-ms", measureMS, true)
	if err != nil {
		return opts, err
	}
	warmup, err := cliflags.WindowMS("-warmup-ms", warmupMS, true)
	if err != nil {
		return opts, err
	}
	if err := cliflags.ReplayWindows("-replay-windows", windows); err != nil {
		return opts, err
	}
	if measure > 0 {
		opts.Measure = measure
	}
	if warmup > 0 {
		opts.Warmup = warmup
	}
	if windows > 0 {
		opts.ReplayWindows = windows
	}
	return opts, nil
}

func main() {
	var (
		list      = flag.Bool("list", false, "list experiment ids and exit")
		exp       = flag.String("exp", "all", "experiment id(s) to run (comma-separated), or 'all'")
		measureMS = flag.Float64("measure-ms", 0, "timing-simulation measurement window in ms (0 = default)")
		warmupMS  = flag.Float64("warmup-ms", 0, "timing-simulation warmup in ms (0 = default)")
		windows   = flag.Int("replay-windows", 0, "replayed tREFW windows incl. warmup (0 = default)")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: all 24)")
		quick     = flag.Bool("quick", false, "tiny windows and a 3-workload subset (smoke run)")
		verbose   = flag.Bool("v", false, "log per-run progress to stderr")
		timeout   = flag.Duration("timeout", 0, "wall-clock deadline per engine job (0 = none)")
		listen    = flag.String("listen", "", "serve live /metrics, /manifest and /debug/pprof on this address (e.g. :6060)")
		noRetry   = flag.Bool("no-retry", false, "disable the reduced-fidelity retry of failed experiments")
		shardPath = flag.String("shard", "", "worker mode: run one sweep shard from this request JSON file (see mirza-sweep)")
		shardOut  = flag.String("shard-out", "", "worker mode: write the shard's canonical manifest to this path (required with -shard)")
		common    = cliflags.Register(flag.CommandLine)
	)
	flag.Parse()

	shared, err := common.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-bench:", err)
		os.Exit(2)
	}

	if *shardPath != "" || *shardOut != "" {
		os.Exit(runShard(*shardPath, *shardOut, shared, *timeout, *verbose))
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		return
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = opts.Quick()
	}
	opts, err = scaleWindows(opts, *measureMS, *warmupMS, *windows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-bench:", err)
		os.Exit(2)
	}
	names, err := cliflags.Workloads("-workloads", *workloads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-bench:", err)
		os.Exit(2)
	}
	if names != nil {
		opts.Workloads = names
	}
	opts.StallBudget = shared.StallBudget
	opts.Parallelism = shared.Parallelism
	opts.Audit = shared.Audit
	opts.Tenants = shared.Tenants
	opts.TraceFiles = shared.TraceFiles
	plan := shared.Faults
	opts.Faults = plan
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
	}
	if *verbose {
		opts.Logf = logf
	}

	var reg *telemetry.Registry
	if shared.MetricsPath != "" || *listen != "" {
		reg = telemetry.New()
	}
	opts.Telemetry = reg

	start := time.Now()
	config := map[string]string{
		"exp":            *exp,
		"measure-ms":     strconv.FormatFloat(*measureMS, 'g', -1, 64),
		"warmup-ms":      strconv.FormatFloat(*warmupMS, 'g', -1, 64),
		"replay-windows": strconv.Itoa(*windows),
		"workloads":      *workloads,
		"quick":          strconv.FormatBool(*quick),
		"audit":          strconv.FormatBool(shared.Audit),
		"j":              strconv.Itoa(shared.Parallelism),
		"tenants":        shared.Tenants,
		"trace":          strings.Join(shared.TraceFiles, ","),
	}
	buildManifest := func() *telemetry.RunManifest {
		m := telemetry.NewManifest("mirza-bench", config)
		m.Seed = opts.Seed
		m.FaultPlan = plan.String()
		m.FillFromSnapshot(reg.Snapshot())
		m.WallClockSeconds = time.Since(start).Seconds()
		m.WrittenAt = time.Now().UTC().Format(time.RFC3339)
		return m
	}
	// stopListen gracefully shuts the live endpoint down before exit (a
	// no-op when -listen is unset). The hardened server from
	// internal/serve carries read-header/read/write/idle timeouts, so a
	// slow-loris client or an orphaned socket cannot wedge the process.
	stopListen := func() {}
	if *listen != "" {
		if warn, err := cliflags.ValidateListen(*listen); err != nil {
			fmt.Fprintln(os.Stderr, "mirza-bench:", err)
			os.Exit(2)
		} else if warn != "" {
			logf("%s", warn)
		}
		hsrv := serve.NewHTTPServer(*listen, serve.ObservabilityMux(reg.Snapshot, buildManifest))
		go func() {
			if err := hsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "mirza-bench: listen:", err)
			}
		}()
		stopListen = func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = hsrv.Shutdown(ctx)
		}
		logf("serving /metrics, /manifest and /debug/pprof on %s", *listen)
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	opts.JobTimeout = *timeout
	suite := experiments.NewSuite(opts, experiments.SuiteConfig{
		NoRetry: *noRetry,
		Logf:    logf,
	})

	// Interrupts cancel cooperatively: running simulations stop at their
	// next event batch, unstarted jobs are canceled, and the summary,
	// manifest and exit code still happen.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var results []experiments.Result
	for _, id := range ids {
		res := suite.RunAll(ctx, []string{id})[0]
		results = append(results, res)
		switch {
		case res.Failed():
			reg.Counter("experiments_total", telemetry.L("status", "failed")).Inc()
		case res.Degraded:
			reg.Counter("experiments_total", telemetry.L("status", "degraded")).Inc()
		default:
			reg.Counter("experiments_total", telemetry.L("status", "ok")).Inc()
		}
		switch {
		case res.Failed():
			fmt.Fprintf(os.Stderr, "FAIL %s after %.1fs: %v\n", res.ID, res.Duration.Seconds(), res.Err)
			if res.Panicked {
				fmt.Fprintln(os.Stderr, res.Stack)
			}
		default:
			fmt.Println(res.Table.Render())
			marker := ""
			if res.Degraded {
				marker = " [DEGRADED: reduced fidelity]"
			}
			fmt.Printf("%s\n\n", tookLine(res, marker))
		}
	}

	stopListen()
	if !plan.Empty() {
		fmt.Printf("injected faults: %s (plan %s)\n", suite.Runner().FaultLog().Summary(), plan)
	}
	if shared.MetricsPath != "" {
		if err := buildManifest().WriteFile(shared.MetricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "mirza-bench: writing manifest:", err)
			os.Exit(1)
		}
	}
	// Only print the summary when there is something to report: a clean
	// run's stdout stays byte-identical to the pre-harness output.
	sum := experiments.Summarize(results)
	if !sum.Clean() {
		fmt.Println(sum)
	}
	switch {
	case sum.Failed > 0:
		os.Exit(1)
	case sum.Degraded > 0:
		os.Exit(3)
	}
}

// minEstBusy is the least busy time tookLine estimates a speedup from.
// An experiment whose work came from a Runner memo (Fig 6 after Table 4)
// is busy for milliseconds, and a ratio of two such durations is noise.
const minEstBusy = time.Second

// tookLine reports an experiment's wall time and, when it ran engine jobs,
// their count and busy time. Busy sums every job's wall-clock: an estimate
// of what a one-worker (-j 1) run would need, hence busy/duration
// estimates the parallel speedup actually achieved, printed from
// minEstBusy up.
func tookLine(res experiments.Result, marker string) string {
	line := fmt.Sprintf("(%s took %.1fs%s", res.ID, res.Duration.Seconds(), marker)
	if res.Jobs > 0 && res.Duration > 0 {
		line += fmt.Sprintf("; %d jobs, %.1fs busy", res.Jobs, res.Busy.Seconds())
		if res.Busy >= minEstBusy {
			line += fmt.Sprintf(", est speedup %.1fx vs -j 1", res.Busy.Seconds()/res.Duration.Seconds())
		}
	}
	return line + ")"
}

// runShard is the sweep worker mode (-shard/-shard-out): it reads one
// serve.Request JSON file, runs it through the same ExperimentsBackend
// the daemon uses, and writes the canonical run manifest — so a shard
// executed by a worker process is byte-identical to the same request
// served by mirza-serve or cached by mirza-sweep. Exit codes: 0 clean,
// 1 failed, 2 bad request, 3 degraded fidelity (mirza-sweep treats
// anything nonzero as a failed shard).
func runShard(reqPath, outPath string, shared cliflags.Values, engineTimeout time.Duration, verbose bool) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "mirza-bench: shard: "+format+"\n", args...)
		return 1
	}
	if reqPath == "" || outPath == "" {
		fmt.Fprintln(os.Stderr, "mirza-bench: worker mode needs both -shard <request.json> and -shard-out <manifest.json>")
		return 2
	}
	body, err := os.ReadFile(reqPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-bench: shard:", err)
		return 2
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req serve.Request
	if err := dec.Decode(&req); err != nil {
		fmt.Fprintf(os.Stderr, "mirza-bench: shard: %s: %v\n", reqPath, err)
		return 2
	}
	backend := &serve.ExperimentsBackend{
		StallBudget:   shared.StallBudget,
		Parallelism:   shared.Parallelism,
		EngineTimeout: engineTimeout,
	}
	if verbose {
		backend.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}
	prep, err := backend.Prepare(&req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-bench: shard:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	out := backend.Run(ctx, prep)
	if out.Err != "" {
		if out.Panicked {
			fmt.Fprintln(os.Stderr, out.Stack)
		}
		return fail("%s (key %s)", out.Err, prep.Key)
	}
	if err := os.WriteFile(outPath, out.Manifest, 0o644); err != nil {
		return fail("%v", err)
	}
	if out.Degraded {
		fmt.Fprintf(os.Stderr, "mirza-bench: shard %s: DEGRADED fidelity\n", prep.Key)
		return 3
	}
	return 0
}
