package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var spec benchmarkJSON
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestMetricsMatchSpec keeps BENCHMARK.json and the code in step: the same
// workloads, and the same metrics with the same units.
func TestMetricsMatchSpec(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code %s", got, want)
	}
	for _, w := range spec.Workloads {
		if cw, ok := lookupWorkload(w.Name); ok && cw.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, code %q", w.Name, w.Why, cw.why)
		}
	}
	check := func(kind string, defs []metricDef, spec map[string]string) {
		if len(defs) != len(spec) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(spec))
		}
		for _, d := range defs {
			if u, ok := spec[d.name]; !ok || u != d.unit {
				t.Errorf("%s metric %s (%s): BENCHMARK.json has unit %q (present=%v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

// TestSmoke runs every workload at the test scale through the same code
// path as a full run, untraced and traced, and checks the result lines:
// correct against the pinned smoke digests, every metric BENCHMARK.json
// names present with its unit, and the per-layer reconciliation printed.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{seed: 1, seconds: 200 * time.Millisecond, traced: traced, smoke: true}
			if traced {
				o.traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			start := time.Now()
			res, err := runWorkload(w, o, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			t.Logf("%s traced=%v: %v", w.name, traced, time.Since(start).Round(time.Millisecond))
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %+v", w.name, traced, name, unit, m)
				}
			}
			if traced {
				if _, err := os.Stat(o.traceOut); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				if (strings.HasPrefix(w.name, "timing") || w.name == "replay") && !strings.Contains(out.String(), "reconcile (per rep):") {
					t.Errorf("%s: traced run printed no reconciliation:\n%s", w.name, out.String())
				}
			}
			var buf bytes.Buffer
			if err := writeResult(&buf, res); err != nil {
				t.Fatal(err)
			}
			var round result
			if err := json.Unmarshal(buf.Bytes(), &round); err != nil || len(round.Metrics) != len(res.Metrics) {
				t.Errorf("%s: result line does not round-trip: %v", w.name, err)
			}
		}
	}
}

// TestPerturbedDigestFails checks that a pinned digest that does not match
// marks the op failed, and that a run disagreeing with itself fails too.
func TestPerturbedDigestFails(t *testing.T) {
	pinned, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, set := range []string{w.name, w.name + "@smoke"} {
			if len(pinned[set]) == 0 {
				t.Errorf("testdata/digests.json pins nothing for %s", set)
			}
		}
	}
	set := pinned["replay@smoke"]
	perturbed := pinnedDigests{"replay@smoke": {}}
	for op, d := range set {
		perturbed["replay@smoke"][op] = d
	}
	perturbed["replay@smoke"]["mirza"] = strings.Repeat("0", 64)

	c := newChecker("replay@smoke", perturbed, 1)
	if ok, _ := c.check("mirza", set["mirza"]); ok {
		t.Error("a digest differing from the pinned one passed")
	}
	c = newChecker("replay@smoke", pinned, 1)
	if ok, why := c.check("mirza", set["mirza"]); !ok {
		t.Errorf("the pinned digest failed: %s", why)
	}
	if ok, _ := c.check("unpinned-op", "abc"); ok {
		t.Error("an op without a pinned digest passed on seed 1")
	}

	c = newChecker("replay@smoke", pinned, 7)
	if ok, _ := c.check("mirza", "a"); !ok {
		t.Error("an unpinned seed's first digest failed")
	}
	if ok, _ := c.check("mirza", "b"); ok {
		t.Error("a repeat of an op with another digest passed")
	}

	// End to end: the run reports the failure in its result line.
	orig := pinnedJSON
	defer func() { pinnedJSON = orig }()
	if pinnedJSON, err = json.Marshal(perturbed); err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("replay")
	var out bytes.Buffer
	res, err := runWorkload(w, options{seed: 1, seconds: time.Millisecond, smoke: true}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("run with a perturbed pinned digest reported correct=%v failed=%d", res.Correct, res.Failed)
	}
}
