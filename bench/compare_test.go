package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python 3: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {22, 50, true}, {40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {900, 98, true}, {999, 98, true},
		{1000, 99, true}, {2000, 99.5, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for p, want := range map[float64]float64{0: 1, 50: 6, 90: 10, 100: 11, 95: 10.5} {
		if got := percentile(s, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// runsOf builds n synthetic results whose op_p50_ref follows f(i); every
// other end-to-end metric reads 100.
func runsOf(n int, f func(i int) float64) []result {
	out := make([]result, n)
	for i := range out {
		m := make(map[string]metric)
		for _, d := range endToEnd {
			m[d.name] = metric{100, d.unit}
		}
		m["op_p50_ref"] = metric{f(i), "ref"}
		out[i] = result{Correct: true, Attempted: 1, Metrics: m}
	}
	return out
}

// jitter is a deterministic ±2% pattern around 1.
func jitter(i int) float64 { return 1 + 0.02*math.Sin(float64(7*i+1)) }

func TestCompareVerdicts(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricSpec{
		{Name: "op_p50_ref", Unit: "ref", Better: "lower", Bound: 0.1},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	}}
	base := runsOf(10, func(i int) float64 { return 50 * jitter(i) })
	cases := []struct {
		name   string
		parent []result
		change []result
		want   string
	}{
		{"same", base, runsOf(10, func(i int) float64 { return 50 * jitter(i+3) }), verdictSame},
		{"slower", base, runsOf(10, func(i int) float64 { return 60 * jitter(i) }), verdictRegression},
		{"within bound", base, runsOf(10, func(i int) float64 { return 53 * jitter(i) }), verdictSame},
		{"faster", base, runsOf(10, func(i int) float64 { return 40 * jitter(i) }), verdictGain},
		{"noisy parent", runsOf(10, func(i int) float64 { return 50 * (1 + 0.3*math.Sin(float64(i))) }),
			runsOf(10, func(i int) float64 { return 50 * jitter(i) }), verdictUnresolved},
		{"noisy parent, change always better", runsOf(10, func(i int) float64 { return 50 * (1.5 + 0.3*math.Sin(float64(i))) }),
			runsOf(10, func(i int) float64 { return 20 * jitter(i) }), verdictGain},
		{"few pairs", base[:9], base[:9], verdictFewPairs},
	}
	for _, c := range cases {
		r := compareRuns(spec, "w", c.parent, c.change)
		if got := r.cells[0].verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q (%s)", c.name, got, c.want, r.cells[0])
		}
		if c.want != verdictFewPairs && r.cells[1].verdict != verdictSame {
			t.Errorf("%s: unchanged peak_rss_mb reads %q", c.name, r.cells[1].verdict)
		}
	}

	higher := metricSpec{Name: "op_p50_ref", Better: "higher", Bound: 0.1}
	if c := compareMetric(higher, base, runsOf(10, func(i int) float64 { return 40 * jitter(i) })); c.verdict != verdictRegression {
		t.Errorf("higher-is-better drop: verdict %q, want %q", c.verdict, verdictRegression)
	}

	failing := runsOf(10, func(i int) float64 { return 50 * jitter(i) })
	failing[4].Failed = 1
	if r := compareRuns(spec, "w", base, failing); !r.moreFailures || !r.bad() {
		t.Error("more failed ops on the change did not flag the workload")
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs []result) string {
		var b bytes.Buffer
		for i, r := range runs {
			line, err := json.Marshal(record{Workload: "replay", Seed: uint64(i + 1), Result: r})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		// A traced run is ignored.
		b.WriteString(`{"workload":"replay","seed":1,"trace":1,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{}}}` + "\n")
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.ndjson", runsOf(10, func(i int) float64 { return 50 * jitter(i) }))
	same := write("same.ndjson", runsOf(10, func(i int) float64 { return 50 * jitter(i+5) }))
	slower := write("slower.ndjson", runsOf(10, func(i int) float64 { return 80 * jitter(i) }))

	var out, errOut bytes.Buffer
	if code := run([]string{"compare", "--spec", "../BENCHMARK.json", parent, same}, &out, &errOut); code != 0 {
		t.Errorf("same runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.HasPrefix(out.String(), "replay ") || strings.Count(out.String(), "\n") != 1 {
		t.Errorf("want one row for the replay workload, got:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"compare", "--spec", "../BENCHMARK.json", parent, slower}, &out, &errOut); code != 1 {
		t.Errorf("slower runs: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "op_p50_ref "+verdictRegression) {
		t.Errorf("slower runs not reported as a regression:\n%s", out.String())
	}
}
