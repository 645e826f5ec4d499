// Command mirza-sim runs one or more workloads on the full-system
// simulator (8 out-of-order cores, shared DDR5 channel) under a selectable
// Rowhammer mitigation and reports performance and memory-system
// statistics.
//
// Usage:
//
//	mirza-sim -workload fotonik3d -mitigation mirza -trhd 1000 -ms 2
//	mirza-sim -workload mcf -mitigation prac:ath=400 -trhd 500
//	mirza-sim -workload fotonik3d,lbm,mcf -j 4
//	mirza-sim -trace dramsim3.trace -mitigation prac
//	mirza-sim -tenants xz:6+attack=edge:2 -mitigation mirza
//	mirza-sim -list-workloads
//	mirza-sim -list-mitigations
//
// Mitigation policies are resolved by name from the registry in
// internal/track (every policy in internal/track/policies is available);
// parameters are overridden inline with -mitigation name:key=val,...
// Run -list-mitigations for names, docs and tunables.
//
// Instead of a synthetic workload the simulator can replay recorded
// traces (-trace, DRAMSim3 "addr cmd cycle" or native NDJSON; see
// internal/tracefile) or run a multi-tenant inter-VM scenario (-tenants,
// see internal/tenant). The three input modes are mutually exclusive.
//
// With a comma-separated -workload list the simulations run as independent
// jobs on -j workers; reports are printed in the order the workloads were
// listed, and each report is identical to what a separate single-workload
// invocation would print (every simulation is seeded by workload identity,
// not execution order).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"mirza/internal/cliflags"
	"mirza/internal/cpu"
	"mirza/internal/dram"
	"mirza/internal/experiments"
	"mirza/internal/fault"
	"mirza/internal/jobs"
	"mirza/internal/sim"
	"mirza/internal/telemetry"
	"mirza/internal/tenant"
	"mirza/internal/trace"
	"mirza/internal/tracefile"
	_ "mirza/internal/track/policies" // register every mitigation policy
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs every simulation and prints
// the reports to stdout. It returns the exit status: 0 clean, 1 a failed
// simulation or invalid input, 2 a malformed command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mirza-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "fotonik3d", "workload name or comma-separated list (see -list-workloads)")
		ms       = fs.Float64("ms", 2, "simulated milliseconds")
		warmMS   = fs.Float64("warmup-ms", 0.5, "warmup before measurement")
		listWl   = fs.Bool("list-workloads", false, "list workloads and exit")
		mit      = cliflags.RegisterMitigation(fs)
		common   = cliflags.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "mirza-sim:", err)
		return code
	}

	shared, err := common.Resolve()
	if err != nil {
		return fail(1, err)
	}

	if *listWl {
		for _, w := range trace.Workloads() {
			fmt.Fprintf(stdout, "%-10s %-4s MPKI=%-5.1f ACT-PKI=%-5.1f footprint=%dMB\n",
				w.Name, w.Suite, w.MPKI, w.ACTPKI, w.FootprintMB)
		}
		return 0
	}
	if mit.Listed(stdout) {
		return 0
	}
	measure, err := cliflags.WindowMS("-ms", *ms, false)
	if err != nil {
		return fail(2, err)
	}
	warmup, err := cliflags.WindowMS("-warmup-ms", *warmMS, true)
	if err != nil {
		return fail(2, err)
	}
	names, err := cliflags.Workloads("-workload", *workload)
	if err != nil {
		return fail(2, err)
	}

	built, err := mit.Build()
	if err != nil {
		return fail(1, err)
	}

	var reg *telemetry.Registry
	if shared.MetricsPath != "" {
		reg = telemetry.New()
	}
	opts := experiments.Options{
		Warmup:      warmup,
		Measure:     measure,
		Faults:      shared.Faults,
		StallBudget: shared.StallBudget,
		Audit:       shared.Audit,
		Telemetry:   reg,
	}

	// The three input modes are mutually exclusive: an explicit -workload
	// next to -trace or -tenants is almost certainly a confused invocation,
	// so it fails instead of silently ignoring one of them.
	workloadSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			workloadSet = true
		}
	})
	if len(shared.TraceFiles) > 0 && shared.Tenants != "" {
		return fail(1, fmt.Errorf("-trace and -tenants are mutually exclusive"))
	}
	if workloadSet && (len(shared.TraceFiles) > 0 || shared.Tenants != "") {
		return fail(1, fmt.Errorf("-workload cannot be combined with -trace or -tenants"))
	}

	// simulate runs one input under the selected policy and renders its
	// report. Everything it touches — generators, trackers, the fault log —
	// is job-local, so concurrent calls never share state.
	simulate := func(ctx context.Context, load func() (input, error)) (string, error) {
		in, err := load()
		if err != nil {
			return "", err
		}
		faultLog := fault.NewLog()
		m := in.machine
		m.Timing, m.RFMBAT, m.NewMitigator = built.Timing(), built.RFMBAT(), built.Factory()
		sys, err := experiments.Simulate(ctx, opts, faultLog, m, in.label)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		in.header(&sb, sys)
		writeReport(&sb, sys, opts, fmt.Sprintf("%s (TRHD=%d)", built.Name(), mit.TRHD()), faultLog)
		return sb.String(), nil
	}

	// Interrupts cancel cooperatively: running simulations stop at their
	// next event batch and unstarted jobs are reported as canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	var pool []jobs.Job[string]
	add := func(id string, load func() (input, error)) {
		pool = append(pool, jobs.Job[string]{
			ID:  id,
			Run: func(ctx context.Context) (string, error) { return simulate(ctx, load) },
		})
	}
	switch {
	case len(shared.TraceFiles) > 0:
		for _, path := range shared.TraceFiles {
			path := path
			add(path, func() (input, error) { return traceInput(path) })
		}
	case shared.Tenants != "":
		spec := shared.Tenants
		add(spec, func() (input, error) { return tenantsInput(spec, mit.Seed()) })
	default:
		if len(names) == 0 {
			return fail(1, fmt.Errorf("no workload named"))
		}
		for _, name := range names {
			name := name
			add(name, func() (input, error) { return workloadInput(name, mit.Seed()) })
		}
	}
	results := jobs.RunOnCtx(ctx, jobs.NewPool(jobs.Options{
		Parallelism: shared.Parallelism,
		Telemetry:   reg,
	}), pool)
	exit := 0
	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if res.Err != nil {
			exit = 1
			var se *sim.StallError
			if errors.As(res.Err, &se) {
				fmt.Fprintln(stderr, "mirza-sim:", se)
				continue
			}
			fmt.Fprintln(stderr, "mirza-sim:", res.Err)
			continue
		}
		fmt.Fprint(stdout, res.Value)
	}
	if shared.MetricsPath != "" {
		m := telemetry.NewManifest("mirza-sim", map[string]string{
			"workload":   *workload,
			"trace":      strings.Join(shared.TraceFiles, ","),
			"tenants":    shared.Tenants,
			"mitigation": mit.Spec(),
			"trhd":       strconv.Itoa(mit.TRHD()),
			"ms":         strconv.FormatFloat(*ms, 'g', -1, 64),
			"warmup-ms":  strconv.FormatFloat(*warmMS, 'g', -1, 64),
			"j":          strconv.Itoa(shared.Parallelism),
		})
		m.Seed = mit.Seed()
		m.FaultPlan = shared.Faults.String()
		m.FillFromSnapshot(reg.Snapshot())
		m.WallClockSeconds = time.Since(start).Seconds()
		m.WrittenAt = time.Now().UTC().Format(time.RFC3339)
		if err := m.WriteFile(shared.MetricsPath); err != nil {
			fmt.Fprintln(stderr, "mirza-sim: writing manifest:", err)
			exit = 1
		}
	}
	return exit
}

// input is the workload side of one simulation: the cores' streams and
// address spaces, the telemetry label, and the report header.
type input struct {
	machine experiments.Machine
	label   telemetry.Label
	header  func(sb *strings.Builder, sys *cpu.System)
}

// workloadInput runs a Table IV workload in rate mode: one private copy
// per core.
func workloadInput(name string, seed uint64) (input, error) {
	spec, err := trace.Lookup(name)
	if err != nil {
		return input{}, err
	}
	gens, err := trace.PerCore(spec, 8, seed)
	if err != nil {
		return input{}, err
	}
	return input{
		machine: experiments.Machine{Gens: gens, MSHR: spec.MLPLimit()},
		label:   telemetry.L("workload", name),
		header: func(sb *strings.Builder, _ *cpu.System) {
			fmt.Fprintf(sb, "workload   : %s (%s)\n", spec.Name, spec.Suite)
		},
	}, nil
}

// traceInput replays one recorded trace file, sharded round-robin over
// the cores into a single shared address space.
func traceInput(path string) (input, error) {
	tr, err := tracefile.Load(path, tracefile.Options{})
	if err != nil {
		return input{}, err
	}
	gens, err := tr.PerCore(8)
	if err != nil {
		return input{}, err
	}
	return input{
		// Every shard indexes the recorded stream's one address space.
		machine: experiments.Machine{Gens: gens, ASIDs: make([]int, len(gens)), MSHR: 8},
		label:   telemetry.L("trace", tr.Name),
		header: func(sb *strings.Builder, _ *cpu.System) {
			fmt.Fprintf(sb, "trace      : %s (%s, %d ops, sha256 %s)\n",
				tr.Name, tr.Format, len(tr.Ops), tr.Hash[:16])
		},
	}, nil
}

// tenantsInput runs a multi-tenant scenario: every VM's cores together on
// the shared channel, each VM in its own address space. The per-tenant
// security attribution lives in mirza-bench -exp intervm; this report
// covers the timing side.
func tenantsInput(specStr string, seed uint64) (input, error) {
	spec, err := tenant.Parse(specStr)
	if err != nil {
		return input{}, err
	}
	gens, asids, err := spec.Generators(seed)
	if err != nil {
		return input{}, err
	}
	mshr, err := spec.MLPFor()
	if err != nil {
		return input{}, err
	}
	return input{
		machine: experiments.Machine{Gens: gens, ASIDs: asids, MSHR: mshr},
		label:   telemetry.L("tenants", spec.String()),
		header: func(sb *strings.Builder, sys *cpu.System) {
			fmt.Fprintf(sb, "tenants    : %s (%d cores)\n", spec, spec.TotalCores())
			ipcs := sys.IPCs()
			for ti, t := range spec.Tenants {
				var sum float64
				n := 0
				for core, owner := range spec.CoreLayout() {
					if owner == ti {
						sum += ipcs[core]
						n++
					}
				}
				fmt.Fprintf(sb, "  %-14s %d core(s), avg IPC %.3f\n", t.Name, t.Cores, sum/float64(n))
			}
		},
	}, nil
}

// writeReport appends the statistics block shared by all three modes.
func writeReport(sb *strings.Builder, sys *cpu.System, opts experiments.Options, policy string, faultLog *fault.Log) {
	st := sys.MemStats()
	ipcs := sys.IPCs()
	var sum float64
	for _, v := range ipcs {
		sum += v
	}
	fmt.Fprintf(sb, "mitigation : %s\n", policy)
	fmt.Fprintf(sb, "window     : %v measured after %v warmup\n", sys.Window(), opts.Warmup)
	fmt.Fprintf(sb, "IPC        : avg %.3f per core (%.3f aggregate)\n", sum/float64(len(ipcs)), sum)
	fmt.Fprintf(sb, "bus util   : %.1f%%\n", sys.BusUtilization())
	fmt.Fprintf(sb, "reads      : %d   writes: %d\n", st.Reads, st.Writes)
	fmt.Fprintf(sb, "ACTs       : %d (ACT-PKI %.1f)\n", st.ACTs, actPKI(st.ACTs, ipcs, sys.Window()))
	fmt.Fprintf(sb, "REFs       : %d   RFMs: %d\n", st.REFs, st.RFMs)
	fmt.Fprintf(sb, "ALERTs     : %d (stall %v)\n", st.Alerts, st.AlertStall)
	fmt.Fprintf(sb, "mitigations: %d aggressor rows (%d victim refreshes)\n", st.Mitigations, st.VictimRows)
	if st.DemandRefreshRows > 0 {
		fmt.Fprintf(sb, "refresh pwr: +%.2f%% (victim rows / demand rows)\n",
			100*float64(st.VictimRows)/float64(st.DemandRefreshRows))
	}
	if !opts.Faults.Empty() {
		fmt.Fprintf(sb, "faults     : %s (plan %s)\n", faultLog.Summary(), opts.Faults)
	}
	if opts.Audit {
		fmt.Fprintf(sb, "audit      : clean (0 protocol violations)\n")
	}
}

func actPKI(acts int64, ipcs []float64, window dram.Time) float64 {
	var instr float64
	for _, ipc := range ipcs {
		instr += ipc * float64(window) / float64(cpu.CycleTime)
	}
	if instr == 0 {
		return 0
	}
	return float64(acts) / instr * 1000
}
