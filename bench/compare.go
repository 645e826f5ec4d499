package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compare applies the rule for landing a change on measured runs: with at
// least minPairs alternating pairs of parent and change runs per workload,
// each end-to-end metric is
//
//   - UNRESOLVED when the parent's own spread (quartile distance over
//     median) exceeds the metric's bound, unless every change run reads
//     better than every parent run;
//   - a REGRESSION when the change's median is worse than the parent's by
//     more than the bound;
//   - a gain when the change wins at least nine pairs in ten (ties count
//     for neither) and the medians differ by more than the parent's
//     quartile distance;
//   - no change otherwise.
//
// A workload whose change runs fail more ops than the parent's regresses.

const minPairs = 10

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return s, fmt.Errorf("%s: metric %s: better must be lower or higher, got %q", path, m.Name, m.Better)
		}
	}
	return s, nil
}

// loadRecords reads an NDJSON file written by --record, keeping untraced
// runs grouped by workload in file order.
func loadRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

// Verdicts.
const (
	verdictGain       = "gain"
	verdictSame       = "no change"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "UNRESOLVED"
	verdictFewPairs   = "TOO FEW PAIRS"
)

// cell is one metric's comparison on one workload.
type cell struct {
	metric         string
	verdict        string
	parent, change float64 // medians
	spread         float64 // parent quartile distance / parent median
	wins, pairs    int
	missing        bool
}

// row is one workload's comparison.
type row struct {
	workload     string
	cells        []cell
	parentFailed int
	changeFailed int
	moreFailures bool
}

func (r row) bad() bool {
	if r.moreFailures {
		return true
	}
	for _, c := range r.cells {
		if c.verdict == verdictRegression || c.verdict == verdictUnresolved || c.verdict == verdictFewPairs {
			return true
		}
	}
	return false
}

// compareRuns compares the change's runs with the parent's, pairing the
// i-th run of each.
func compareRuns(spec benchSpec, workload string, parent, change []result) row {
	n := min(len(parent), len(change))
	r := row{workload: workload}
	for _, res := range parent[:n] {
		r.parentFailed += res.Failed
	}
	for _, res := range change[:n] {
		r.changeFailed += res.Failed
	}
	r.moreFailures = r.changeFailed > r.parentFailed
	for _, m := range spec.EndToEnd {
		r.cells = append(r.cells, compareMetric(m, parent[:n], change[:n]))
	}
	return r
}

func compareMetric(m metricSpec, parent, change []result) cell {
	c := cell{metric: m.Name, pairs: len(parent)}
	a := make([]float64, 0, len(parent))
	b := make([]float64, 0, len(change))
	for i := range parent {
		av, aok := parent[i].Metrics[m.Name]
		bv, bok := change[i].Metrics[m.Name]
		if !aok || !bok {
			c.missing = true
			c.verdict = verdictFewPairs
			return c
		}
		a = append(a, av.Value)
		b = append(b, bv.Value)
	}
	if len(a) == 0 {
		c.verdict = verdictFewPairs
		return c
	}
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	c.parent, c.change = medA, medB
	c.spread = (q3 - q1) / math.Abs(medA)
	for i := range a {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	worse := (medB - medA) / math.Abs(medA)
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case c.pairs < minPairs:
		c.verdict = verdictFewPairs
	case c.spread > m.Bound && allBetter:
		c.verdict = verdictGain
	case c.spread > m.Bound:
		c.verdict = verdictUnresolved
	case worse > m.Bound:
		c.verdict = verdictRegression
	case 10*c.wins >= 9*c.pairs && better(medB, medA) && math.Abs(medB-medA) > q3-q1:
		c.verdict = verdictGain
	default:
		c.verdict = verdictSame
	}
	return c
}

func (c cell) String() string {
	if c.missing {
		return fmt.Sprintf("%s %s (metric missing from some runs)", c.metric, c.verdict)
	}
	return fmt.Sprintf("%s %s (%.4g -> %.4g, %+.1f%%, spread %.1f%%, %d/%d wins)",
		c.metric, c.verdict, c.parent, c.change, 100*(c.change-c.parent)/math.Abs(c.parent), 100*c.spread, c.wins, c.pairs)
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: mirza-benchmark compare [--spec BENCHMARK.json] parent.ndjson change.ndjson")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	parent, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		if len(parent[w.name]) == 0 && len(change[w.name]) == 0 {
			continue
		}
		r := compareRuns(spec, w.name, parent[w.name], change[w.name])
		cells := make([]string, len(r.cells))
		for i, c := range r.cells {
			cells[i] = c.String()
		}
		failures := fmt.Sprintf("failed %d -> %d", r.parentFailed, r.changeFailed)
		if r.moreFailures {
			failures = "MORE FAILURES: " + failures
		}
		fmt.Fprintf(stdout, "%-13s %s | %s\n", w.name, failures, strings.Join(cells, " | "))
		if r.bad() {
			code = 1
		}
	}
	return code
}
