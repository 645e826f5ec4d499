package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/fault"
)

// The determinism contract (DESIGN.md §9): rendered tables are a pure
// function of (options, seed, fault plan) — independent of worker count
// and job execution order. The goldens under testdata/ were generated by
// the pre-refactor strictly-sequential engine, so these tests also pin
// the refactored engine to the original output byte-for-byte.
//
// Regenerate (only when an intentional methodology change shifts results):
//
//	go test ./internal/experiments -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite determinism goldens")

// goldenOptions are small enough for CI but still exercise calibration,
// baselines, timing simulation, replay and fault injection.
func goldenOptions(workloads []string, plan fault.Plan) Options {
	return Options{
		Seed:              1,
		Warmup:            50 * dram.Microsecond,
		Measure:           150 * dram.Microsecond,
		ReplayWindows:     2,
		CalibrationWindow: 150 * dram.Microsecond,
		Workloads:         workloads,
		Faults:            plan,
		Parallelism:       1, // the sequential reference engine
	}
}

// goldenCase names one experiment run pinned by a testdata golden.
type goldenCase struct {
	name        string
	id          string
	workloads   []string
	mitigations []string // Options.Mitigations; nil keeps the experiment's grid
	faults      string   // fault.Parse syntax
}

var goldenCases = []goldenCase{
	{"table4", "table4", []string{"xz", "bc"}, nil, ""},
	{"fig3", "fig3", []string{"xz"}, nil, ""},
	{"table8_faults", "table8", []string{"xz", "bc"}, nil, "seed=7,alertdrop=0.3,bitflip=2e-6,alertdelay=16"},
	{"table6", "table6", []string{"xz"}, nil, ""},
	{"fig11b", "fig11b", []string{"xz"}, nil, ""},
	{"fig13", "fig13", []string{"xz"}, nil, ""},
	// Table 9 and Fig 11a run MIRZA timing simulations from warmed
	// Region Count Tables (runMIRZA): these pin the warm-up state that
	// the timing side reads.
	{"table9", "table9", []string{"xz"}, nil, ""},
	{"fig11a", "fig11a", []string{"xz"}, nil, ""},
	// Derived experiments: their numbers are other experiments' cells.
	{"table13", "table13", []string{"xz"}, nil, ""},
	{"fig6", "fig6", []string{"xz"}, nil, ""},
	{"fig1c", "fig1c", []string{"xz"}, nil, ""},
	// The three per-row counting trackers under bit flips: the log holds
	// flips of PRAC's and the oracle's counters (MoPAC's are not exposed
	// to fault injection).
	{"baselines_faults", "baselines", []string{"xz"}, []string{"prac", "mopac", "oracle"}, "seed=7,alertdrop=0.3,bitflip=2e-6,alertdelay=16"},
}

// options returns the golden Options of one case at the given parallelism.
func (tc goldenCase) options(t *testing.T, parallelism int) Options {
	t.Helper()
	plan, err := fault.Parse(tc.faults)
	if err != nil {
		t.Fatal(err)
	}
	opts := goldenOptions(tc.workloads, plan)
	opts.Mitigations = tc.mitigations
	opts.Parallelism = parallelism
	return opts
}

// renderCase runs one golden case on a fresh Runner and renders the table
// plus the fault-injection log (whose event order is part of the
// determinism contract).
func renderCase(t *testing.T, id string, opts Options) string {
	t.Helper()
	exp, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(opts)
	table, err := exp.Run(r)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	sb.WriteString(table.Render())
	log := r.FaultLog()
	sb.WriteString("faults: " + log.Summary() + "\n")
	for i, e := range log.Events() {
		if i == 24 {
			break
		}
		sb.WriteString("  " + e.String() + "\n")
	}
	return sb.String()
}

func TestGoldenSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiments run full simulations")
	}
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := renderCase(t, tc.id, tc.options(t, 1))
			path := filepath.Join("testdata", "golden_"+tc.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s diverged from the sequential-engine golden\ngot:\n%s\nwant:\n%s", tc.name, got, want)
			}
		})
	}
}

// TestGoldenParallel is the ISSUE's acceptance test: the same experiments
// run at Parallelism 8 must render byte-identically to the sequential
// goldens — tables AND the fault-injection event log.
func TestGoldenParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiments run full simulations")
	}
	if *updateGolden {
		t.Skip("goldens are updated from the sequential run")
	}
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := renderCase(t, tc.id, tc.options(t, 8))
			path := filepath.Join("testdata", "golden_"+tc.name+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run TestGoldenSequential with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("-j 8 output diverged from the -j 1 golden for %s\ngot:\n%s\nwant:\n%s", tc.name, got, want)
			}
		})
	}
}

// TestConcurrentRunnerSingleFlight shares one Runner between two
// experiments running on separate goroutines (as a parallel suite would)
// and asserts each workload was calibrated exactly once. Run under -race
// this also proves the Runner's caches are concurrency-safe.
func TestConcurrentRunnerSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	opts := goldenOptions([]string{"xz"}, fault.Plan{})
	opts.Parallelism = 4
	r := NewRunner(opts)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, id := range []string{"table4", "fig6"} {
		i, id := i, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			exp, err := Lookup(id)
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = exp.Run(r)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("experiment %d: %v", i, err)
		}
	}
	r.mu.Lock()
	calibrations := r.calibrations["xz"]
	r.mu.Unlock()
	if calibrations != 1 {
		t.Errorf("workload xz calibrated %d times, want exactly 1 (single-flight)", calibrations)
	}
}
