// Command mirza-sweep runs fleet-scale experiment sweeps and maintains
// their tamper-evident provenance ledger.
//
// Usage:
//
//	mirza-sweep run    -exp fig3 -seeds 1-8 -ledger runs/fig3 -workers 4
//	mirza-sweep run    -grid grid.json -ledger runs/grid -bench ./bin/mirza-bench
//	mirza-sweep verify -ledger runs/fig3
//	mirza-sweep prove  -ledger runs/fig3 -seq 3
//	mirza-sweep ls     -ledger runs/fig3
//	mirza-sweep table  -ledger runs/fig3
//
// `run` decomposes the grid (experiment × workload × mitigation ×
// seed-range) into deterministic shards executed across mirza-bench
// worker processes, skips shards whose content-addressed key already
// has a valid canonical manifest in the ledger directory (recorded, or
// left by an interrupted run), and appends the results to the Merkle
// ledger in enumeration order — so the ledger, its head root and the
// rendered table are byte-identical at any -workers count.
//
// `verify` re-reads every byte of the ledger from disk and proves every
// recorded manifest back to the head root; a single flipped byte fails.
// `prove` prints one entry's Merkle inclusion proof; `table` renders
// the EXPERIMENTS.md-style sweep table.
//
// Exit codes: 0 clean, 1 failed (shard failure, verification failure),
// 2 bad usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mirza/internal/cliflags"
	"mirza/internal/provenance"
	"mirza/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var code int
	switch cmd := os.Args[1]; cmd {
	case "run":
		code = cmdRun(os.Args[2:])
	case "verify":
		code = cmdVerify(os.Args[2:])
	case "prove":
		code = cmdProve(os.Args[2:])
	case "ls":
		code = cmdLs(os.Args[2:])
	case "table":
		code = cmdTable(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mirza-sweep: unknown command %q\n\n", cmd)
		usage()
		code = 2
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mirza-sweep <command> [flags]

commands:
  run     execute a sweep grid across worker processes and record it
  verify  re-verify every byte and proof of a recorded ledger
  prove   print the Merkle inclusion proof of one ledger entry
  ls      list a ledger's entries
  table   render a ledger as a markdown sweep table

run 'mirza-sweep <command> -h' for the command's flags`)
}

func fatal(fs *flag.FlagSet, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "mirza-sweep %s: "+format+"\n", append([]any{fs.Name()}, args...)...)
	return 2
}

// parseSeeds parses "1-8" or "3" into an inclusive range.
func parseSeeds(s string) (sweep.SeedRange, error) {
	if s == "" {
		return sweep.SeedRange{}, nil
	}
	from, to, found := strings.Cut(s, "-")
	if !found {
		to = from
	}
	lo, err := strconv.ParseUint(strings.TrimSpace(from), 10, 64)
	if err != nil {
		return sweep.SeedRange{}, fmt.Errorf("-seeds: %q is not N or N-M", s)
	}
	hi, err := strconv.ParseUint(strings.TrimSpace(to), 10, 64)
	if err != nil {
		return sweep.SeedRange{}, fmt.Errorf("-seeds: %q is not N or N-M", s)
	}
	return sweep.SeedRange{From: lo, To: hi}, nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// defaultBench locates mirza-bench: next to this executable, then PATH.
func defaultBench() string {
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "mirza-bench")
		if fi, err := os.Stat(cand); err == nil && !fi.IsDir() {
			return cand
		}
	}
	if p, err := exec.LookPath("mirza-bench"); err == nil {
		return p
	}
	return ""
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		gridPath    = fs.String("grid", "", "sweep grid specification JSON (overrides the axis flags)")
		exp         = fs.String("exp", "", "comma-separated experiment ids (axis flags build a grid when -grid is unset)")
		seeds       = fs.String("seeds", "", "seed range, N or N-M inclusive (default: seed 1)")
		workloads   = fs.String("workloads", "", "comma-separated workload axis (default: experiment defaults)")
		mitigations = fs.String("mitigations", "", "comma-separated mitigation-policy axis (default: experiment defaults)")
		quick       = fs.Bool("quick", false, "apply the smoke-run fidelity preset to every shard")
		measureMS   = fs.Float64("measure-ms", 0, "measurement window per shard in ms (0 = default)")
		warmupMS    = fs.Float64("warmup-ms", 0, "warmup per shard in ms (0 = default)")
		windows     = fs.Int("replay-windows", 0, "replayed tREFW windows per shard (0 = default)")
		faults      = fs.String("faults", "", "fault-injection plan applied to every shard")
		audit       = fs.Bool("audit", false, "attach the DDR5 protocol auditor in every shard")
		tenants     = fs.String("tenants", "", "multi-tenant scenario spec for intervm shards")
		trace       = fs.String("trace", "", "comma-separated trace files for tracereplay shards")

		ledgerDir = fs.String("ledger", "", "provenance ledger directory (required)")
		bench     = fs.String("bench", "", "mirza-bench binary (default: next to mirza-sweep, then $PATH)")
		workers   = fs.Int("workers", 2, "worker processes (output is byte-identical at any value)")
		innerJ    = fs.Int("j", 0, "engine parallelism inside each worker (0 = worker default)")
		retries   = fs.Int("retries", 2, "re-runs of a shard whose worker died of a signal")
		shardTO   = fs.Duration("shard-timeout", 10*time.Minute, "wall-clock bound per shard attempt")
		stall     = fs.Duration("stall-budget", 0, "livelock watchdog budget forwarded to workers (0 = worker default)")
		tablePath = fs.String("table", "", "also write the rendered markdown sweep table to this path")
		verbose   = fs.Bool("v", false, "log per-shard progress to stderr")
	)
	_ = fs.Parse(args)
	if *ledgerDir == "" {
		return fatal(fs, "-ledger is required")
	}

	var g *sweep.Grid
	if *gridPath != "" {
		var err error
		if g, err = sweep.LoadGrid(*gridPath); err != nil {
			return fatal(fs, "%v", err)
		}
	} else {
		sr, err := parseSeeds(*seeds)
		if err != nil {
			return fatal(fs, "%v", err)
		}
		wl, err := cliflags.Workloads("-workloads", *workloads)
		if err != nil {
			return fatal(fs, "%v", err)
		}
		g = &sweep.Grid{
			Experiments:   splitList(*exp),
			Seeds:         sr,
			Workloads:     wl,
			Mitigations:   splitList(*mitigations),
			Quick:         *quick,
			MeasureMS:     *measureMS,
			WarmupMS:      *warmupMS,
			ReplayWindows: *windows,
			Faults:        *faults,
			Audit:         *audit,
			Tenants:       *tenants,
			Trace:         splitList(*trace),
		}
	}

	benchBin := *bench
	if benchBin == "" {
		if benchBin = defaultBench(); benchBin == "" {
			return fatal(fs, "mirza-bench not found next to mirza-sweep or on $PATH; pass -bench")
		}
	} else if _, err := exec.LookPath(benchBin); err != nil {
		return fatal(fs, "-bench: %v", err)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}
	eng, err := sweep.NewEngine(sweep.Options{
		Bench:        benchBin,
		Workers:      *workers,
		InnerJ:       *innerJ,
		Retries:      *retries,
		ShardTimeout: *shardTO,
		StallBudget:  *stall,
		Verbose:      *verbose,
		Logf:         logf,
	})
	if err != nil {
		return fatal(fs, "%v", err)
	}

	l, err := provenance.Open(*ledgerDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep run:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	results, err := eng.Run(ctx, g, l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep run:", err)
		return 1
	}

	failed := 0
	for _, r := range results {
		switch {
		case r.Err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", r.Shard.ID, r.Err)
		case r.Cached:
			fmt.Printf("cached %-32s %s\n", r.Shard.ID, r.Key[:12])
		default:
			retryNote := ""
			if r.Deaths > 0 {
				retryNote = fmt.Sprintf(" (survived %d worker death(s))", r.Deaths)
			}
			fmt.Printf("ran    %-32s %s%s\n", r.Shard.ID, r.Key[:12], retryNote)
		}
	}

	head, appended, err := sweep.Record(l, results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep run:", err)
		return 1
	}
	fmt.Printf("\nledger %s: %d entries (+%d), root %s\n", *ledgerDir, head.Size, appended, head.Root)
	if *tablePath != "" {
		tbl, err := sweep.Table(l)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mirza-sweep run:", err)
			return 1
		}
		if err := os.WriteFile(*tablePath, []byte(tbl), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mirza-sweep run:", err)
			return 1
		}
	}
	fmt.Printf("%d/%d shards ok in %.1fs\n", len(results)-failed, len(results), time.Since(start).Seconds())
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mirza-sweep run: %d shard(s) failed; unrecorded ones are retried by the next run, damaged recorded ones are reported by mirza-sweep verify\n", failed)
		return 1
	}
	return 0
}

func cmdVerify(args []string) int {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	ledgerDir := fs.String("ledger", "", "provenance ledger directory (required)")
	_ = fs.Parse(args)
	if *ledgerDir == "" {
		return fatal(fs, "-ledger is required")
	}
	sum, err := sweep.VerifyLedger(*ledgerDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep verify: FAIL:", err)
		return 1
	}
	fmt.Printf("ok: %d entries verified, every inclusion proof checks out\nroot %s\n", sum.Entries, sum.Root)
	return 0
}

func cmdProve(args []string) int {
	fs := flag.NewFlagSet("prove", flag.ExitOnError)
	ledgerDir := fs.String("ledger", "", "provenance ledger directory (required)")
	seq := fs.Int("seq", -1, "entry sequence number to prove")
	key := fs.String("key", "", "entry key to prove (alternative to -seq)")
	_ = fs.Parse(args)
	if *ledgerDir == "" {
		return fatal(fs, "-ledger is required")
	}
	if (*seq < 0) == (*key == "") {
		return fatal(fs, "exactly one of -seq or -key is required")
	}
	l, err := provenance.Open(*ledgerDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep prove:", err)
		return 1
	}
	n := *seq
	if *key != "" {
		e, ok := l.Lookup(*key)
		if !ok {
			fmt.Fprintf(os.Stderr, "mirza-sweep prove: key %s is not in the ledger\n", *key)
			return 1
		}
		n = e.Seq
	}
	if n < 0 || n >= l.Len() {
		fmt.Fprintf(os.Stderr, "mirza-sweep prove: seq %d out of range [0, %d)\n", n, l.Len())
		return 1
	}
	e := l.Entries()[n]
	proof, err := l.Prove(n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep prove:", err)
		return 1
	}
	leaf, err := provenance.ParseHash(e.Leaf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep prove:", err)
		return 1
	}
	root := l.Root()
	fmt.Printf("entry %d  %s\n  shard %s\n  leaf  %s\n  tree  %d leaves, root %s\n  path  (leaf-side first):\n",
		e.Seq, e.Key, e.Shard, e.Leaf, l.Len(), root)
	for i, h := range proof {
		fmt.Printf("    [%d] %s\n", i, h)
	}
	if err := provenance.VerifyInclusion(root, leaf, n, l.Len(), proof); err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep prove: FAIL:", err)
		return 1
	}
	fmt.Println("  proof verifies: the recorded manifest is included under the root")
	return 0
}

func cmdLs(args []string) int {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	ledgerDir := fs.String("ledger", "", "provenance ledger directory (required)")
	_ = fs.Parse(args)
	if *ledgerDir == "" {
		return fatal(fs, "-ledger is required")
	}
	l, err := provenance.Open(*ledgerDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep ls:", err)
		return 1
	}
	for _, e := range l.Entries() {
		fmt.Printf("%4d  %-32s %.12s  %.12s\n", e.Seq, e.Shard, e.Key, e.Leaf)
	}
	fmt.Printf("root %s (%d entries)\n", l.Root(), l.Len())
	return 0
}

func cmdTable(args []string) int {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	ledgerDir := fs.String("ledger", "", "provenance ledger directory (required)")
	_ = fs.Parse(args)
	if *ledgerDir == "" {
		return fatal(fs, "-ledger is required")
	}
	l, err := provenance.Open(*ledgerDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep table:", err)
		return 1
	}
	tbl, err := sweep.Table(l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirza-sweep table:", err)
		return 1
	}
	fmt.Print(tbl)
	return 0
}
