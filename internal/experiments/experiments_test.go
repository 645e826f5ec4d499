package experiments

import (
	"reflect"
	"strings"
	"testing"

	"mirza/internal/dram"
)

// quickRunner returns a Runner with one small workload and tiny windows so
// every experiment path executes in CI time.
func quickRunner() *Runner {
	return NewRunner(Options{
		Seed:              1,
		Warmup:            50 * dram.Microsecond,
		Measure:           150 * dram.Microsecond,
		ReplayWindows:     2,
		CalibrationWindow: 150 * dram.Microsecond,
		Workloads:         []string{"xz"},
	})
}

func TestStaticExperiments(t *testing.T) {
	r := quickRunner()
	for _, id := range []string{"table1", "table2", "table7", "table10", "table11", "table12"} {
		exp, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		table, err := exp.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 || len(table.Columns) == 0 {
			t.Errorf("%s: empty table", id)
		}
		if !strings.Contains(table.Render(), table.Title) {
			t.Errorf("%s: render lacks title", id)
		}
	}
}

func TestTable7Values(t *testing.T) {
	table, err := quickRunner().Table7()
	if err != nil {
		t.Fatal(err)
	}
	// The SRAM column must carry the paper's 116/196/340 bytes.
	want := map[string]string{"2000": "116", "1000": "196", "500": "340"}
	for _, row := range table.Rows {
		if sram, ok := want[row[0]]; ok && row[4] != sram {
			t.Errorf("TRHD=%s: SRAM %s, want %s", row[0], row[4], sram)
		}
	}
}

func TestBaselineCachingAndCalibration(t *testing.T) {
	r := quickRunner()
	b1, err := r.Baseline("xz")
	if err != nil {
		t.Fatal(err)
	}
	if b1.IPS <= 0 || b1.MPKI <= 0 {
		t.Fatalf("bad baseline: %+v", b1)
	}
	b2, _ := r.Baseline("xz")
	if b1 != b2 {
		t.Error("baseline should be cached (same pointer)")
	}
	if b1.MLP == 0 {
		t.Error("calibration should have recorded an MLP")
	}
	if _, err := r.Baseline("nosuchworkload"); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestWorkloadExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("replay experiments are slow")
	}
	r := quickRunner()
	for _, id := range []string{"table4", "fig6"} {
		exp, _ := Lookup(id)
		table, err := exp.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) < 2 {
			t.Errorf("%s: too few rows", id)
		}
	}
}

func TestSlowdownExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiments are slow")
	}
	x := quickRunner().newExec()
	sd, rp, err := x.runMINTRFM("xz", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sd < -2 || sd > 60 {
		t.Errorf("MINT+RFM slowdown = %v%%, implausible", sd)
	}
	if rp <= 0 || rp > 50 {
		t.Errorf("refresh power = %v%%, implausible", rp)
	}
	prac, err := x.runPRAC("xz", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if prac < -2 || prac > 40 {
		t.Errorf("PRAC slowdown = %v%%", prac)
	}
}

func TestBaselinesExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiments are slow")
	}
	table, err := quickRunner().Baselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(baselinePolicies) {
		t.Fatalf("got %d rows, want one per policy (%d)", len(table.Rows), len(baselinePolicies))
	}
	for i, policy := range baselinePolicies {
		if got := table.Rows[i][0]; !strings.Contains(strings.ToLower(got), policy[:4]) {
			t.Errorf("row %d policy = %q, want %q", i, got, policy)
		}
		if bound := table.Rows[i][5]; bound == "0" {
			t.Errorf("%s: zero security bound", policy)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	if _, err := Lookup("bogus"); err == nil {
		t.Error("bogus id should error")
	}
	if len(All()) != 21 {
		t.Errorf("expected 21 experiments, got %d", len(All()))
	}
}

func TestRenderAlignment(t *testing.T) {
	table := &Table{
		ID: "x", Title: "t",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"row1", "2"}, {"r", "22222"}},
		Notes:   []string{"hello"},
	}
	out := table.Render()
	if !strings.Contains(out, "note: hello") {
		t.Error("notes missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Error("too few lines")
	}
}

// TestDefaultOptionsEnv: each MIRZA_* override is applied when well formed
// and otherwise rejected with an error naming the variable, never
// silently ignored or left to fail mid-run.
func TestDefaultOptionsEnv(t *testing.T) {
	vars := []string{"MIRZA_MEASURE_MS", "MIRZA_WARMUP_MS", "MIRZA_REPLAY_WINDOWS", "MIRZA_WORKLOADS", "MIRZA_PARALLELISM"}
	for _, tc := range []struct {
		name, value string
		bad         bool
		check       func(Options) bool
	}{
		{"", "", false, func(o Options) bool {
			return o.Measure == 3*dram.Millisecond/2 && o.Warmup == dram.Millisecond/2 &&
				o.ReplayWindows == 2 && o.Workloads == nil && o.Parallelism == 0
		}},
		{"MIRZA_MEASURE_MS", "0.2", false, func(o Options) bool { return o.Measure == 200*dram.Microsecond }},
		{"MIRZA_MEASURE_MS", "abc", true, nil},
		{"MIRZA_MEASURE_MS", "0", false, func(o Options) bool { return o.Measure == 3*dram.Millisecond/2 }},
		{"MIRZA_MEASURE_MS", "-1", true, nil},
		{"MIRZA_MEASURE_MS", "NaN", true, nil},
		{"MIRZA_MEASURE_MS", "+Inf", true, nil},
		{"MIRZA_MEASURE_MS", "1e-12", true, nil},
		{"MIRZA_WARMUP_MS", "0.1", false, func(o Options) bool { return o.Warmup == 100*dram.Microsecond }},
		{"MIRZA_WARMUP_MS", "0", false, func(o Options) bool { return o.Warmup == dram.Millisecond/2 }},
		{"MIRZA_WARMUP_MS", "-0.5", true, nil},
		{"MIRZA_WARMUP_MS", "0.1ms", true, nil},
		{"MIRZA_REPLAY_WINDOWS", "3", false, func(o Options) bool { return o.ReplayWindows == 3 }},
		{"MIRZA_REPLAY_WINDOWS", "0", false, func(o Options) bool { return o.ReplayWindows == 2 }},
		{"MIRZA_REPLAY_WINDOWS", "1", true, nil},
		{"MIRZA_REPLAY_WINDOWS", "2.5", true, nil},
		{"MIRZA_WORKLOADS", "xz,mcf", false, func(o Options) bool { return reflect.DeepEqual(o.Workloads, []string{"xz", "mcf"}) }},
		{"MIRZA_WORKLOADS", "xz,,nosuch", true, nil},
		{"MIRZA_WORKLOADS", "nosuch", true, nil},
		{"MIRZA_PARALLELISM", "4", false, func(o Options) bool { return o.Parallelism == 4 }},
		{"MIRZA_PARALLELISM", "-1", true, nil},
		{"MIRZA_PARALLELISM", "four", true, nil},
	} {
		for _, v := range vars {
			t.Setenv(v, "")
		}
		if tc.name != "" {
			t.Setenv(tc.name, tc.value)
		}
		o, err := DefaultOptions()
		switch {
		case tc.bad && err == nil:
			t.Errorf("%s=%q: accepted, want an error", tc.name, tc.value)
		case tc.bad && !strings.Contains(err.Error(), tc.name):
			t.Errorf("%s=%q: error %q does not name the variable", tc.name, tc.value, err)
		case !tc.bad && err != nil:
			t.Errorf("%s=%q: %v", tc.name, tc.value, err)
		case !tc.bad && !tc.check(o):
			t.Errorf("%s=%q: got %+v", tc.name, tc.value, o)
		}
	}
}
