package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mirza/internal/fault"
	"mirza/internal/telemetry"
)

// renderExperiment runs one experiment on a fresh Runner and returns the
// rendered table.
func renderExperiment(t *testing.T, id string, opts Options) string {
	t.Helper()
	exp, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	table, err := exp.Run(NewRunner(opts))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return table.Render()
}

// TestInterVMDeterminism pins the ISSUE's acceptance criterion for the
// multi-tenant scenario: the rendered table is a pure function of the
// options — independent of worker count — and reruns byte-identically.
func TestInterVMDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	opts := goldenOptions(nil, fault.Plan{})
	opts.Tenants = "xz:1+attack=edge:1"
	opts.Mitigations = []string{"prac", "mirza"}
	seq := renderExperiment(t, "intervm", opts)

	opts.Parallelism = 8
	par := renderExperiment(t, "intervm", opts)
	if seq != par {
		t.Errorf("-j 8 intervm table diverged from -j 1\nseq:\n%s\npar:\n%s", seq, par)
	}
	if again := renderExperiment(t, "intervm", opts); again != par {
		t.Errorf("intervm rerun diverged\nfirst:\n%s\nsecond:\n%s", par, again)
	}
}

// loopTrace writes a small DRAMSim3 trace to a temporary file and returns
// its path.
func loopTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "loop.trace")
	var body strings.Builder
	for i := 0; i < 64; i++ {
		// 64 lines striding 4KB apart, re-read in a loop by the generator.
		cmd := "READ"
		if i%4 == 3 {
			cmd = "WRITE"
		}
		fmt.Fprintf(&body, "0x%x %s %d\n", i*4096, cmd, i*5)
	}
	if err := os.WriteFile(path, []byte(body.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSimulationLayerLabels: each experiment's timing runs flush their
// telemetry under the experiment's own layer label — tracereplay's under
// layer=tracereplay, not the inter-VM study's.
func TestSimulationLayerLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	for _, tc := range []struct {
		id    string
		setup func(*Options)
	}{
		{"tracereplay", func(o *Options) { o.Cores = 4; o.TraceFiles = []string{loopTrace(t)} }},
		{"intervm", func(o *Options) { o.Tenants = "xz:1+attack=edge:1" }},
	} {
		reg := telemetry.New()
		opts := goldenOptions(nil, fault.Plan{})
		opts.Mitigations = []string{"prac"}
		opts.Telemetry = reg
		tc.setup(&opts)
		renderExperiment(t, tc.id, opts)
		layers := map[string]int64{}
		for _, c := range reg.Snapshot().Counters {
			if c.Name == "sim_time_total_ps" {
				layers[c.Labels["layer"]] += c.Value
			}
		}
		if len(layers) != 1 || layers[tc.id] == 0 {
			t.Errorf("%s: simulated time by layer label = %v, want all under layer=%s", tc.id, layers, tc.id)
		}
	}
}

// TestTraceReplayDeterminism: the same trace file replayed twice (and at
// -j 1 vs -j 8) renders byte-identically, and with no traces configured
// the experiment degrades to an informational table instead of failing.
func TestTraceReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	opts := goldenOptions(nil, fault.Plan{})
	opts.Cores = 4
	opts.TraceFiles = []string{loopTrace(t)}
	opts.Mitigations = []string{"none", "prac"}
	seq := renderExperiment(t, "tracereplay", opts)

	opts.Parallelism = 8
	par := renderExperiment(t, "tracereplay", opts)
	if seq != par {
		t.Errorf("-j 8 tracereplay table diverged from -j 1\nseq:\n%s\npar:\n%s", seq, par)
	}
	if again := renderExperiment(t, "tracereplay", opts); again != par {
		t.Errorf("tracereplay rerun diverged\nfirst:\n%s\nsecond:\n%s", par, again)
	}

	opts.TraceFiles = nil
	if got := renderExperiment(t, "tracereplay", opts); got == "" {
		t.Error("empty TraceFiles should still render an informational table")
	}
}
