// Command mirza-benchmark is the repository's benchmark: it runs one
// workload of the simulator end to end, checks that its outputs are
// correct, and prints the measured metrics. See README.md.
//
//	bash bench/run.sh --workload timing-bw --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare parent.ndjson change.ndjson
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without --workload every
// workload runs, each in its own child process.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("mirza-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Uint64("seed", 1, "workload seed (1 is checked against pinned digests)")
	seconds := fs.Int("seconds", 20, "seconds to measure")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	recordPath := fs.String("record", "", "append this run's result to an NDJSON file, the input of compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) || *seed == 0 {
		fmt.Fprintln(stderr, "usage: mirza-benchmark [--workload name] [--seed n>0] [--seconds n>0] [--trace 0|1] [--record file]")
		return 2
	}
	// The experiment defaults read MIRZA_* overrides from the environment;
	// the benchmark's inputs come from its flags alone.
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "MIRZA_") {
			os.Unsetenv(k)
		}
	}
	if *name == "" {
		return runAll(os.Args[0], *seed, *seconds, *traced, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q; workloads: %s\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1}
	if o.traced {
		o.traceOut = "bench-trace-" + w.name + ".json"
	}
	res, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "mirza-benchmark: %v\n", err)
		return 1
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: w.name, Seed: *seed, Trace: *traced, Result: res}); err != nil {
			fmt.Fprintf(stderr, "mirza-benchmark: %v\n", err)
			return 1
		}
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "mirza-benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// record is one line of a compare input file.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a child process of its own, so caches
// start cold and peak RSS is the workload's, and prints one summary line
// per workload.
func runAll(self string, seed uint64, seconds, traced int, stdout, stderr io.Writer) int {
	code := 0
	var summary []string
	for _, w := range workloads {
		fmt.Fprintf(stdout, "== %s\n", w.name)
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		err := cmd.Run()
		var res result
		if perr := json.Unmarshal(lastLine(out.Bytes()), &res); perr != nil || err != nil {
			code = 1
			summary = append(summary, fmt.Sprintf("%-13s FAILED (%v)", w.name, errors.Join(err, perr)))
			continue
		}
		if !res.Correct {
			code = 1
		}
		summary = append(summary, fmt.Sprintf("%-13s correct=%v attempted=%d failed=%d %s",
			w.name, res.Correct, res.Attempted, res.Failed, formatMetrics(res.Metrics)))
	}
	fmt.Fprintln(stdout, "== summary")
	for _, s := range summary {
		fmt.Fprintln(stdout, s)
	}
	return code
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// formatMetrics renders metrics in definition order as name=value unit.
func formatMetrics(ms map[string]metric) string {
	var parts []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m, ok := ms[d.name]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.4g %s", d.name, m.Value, m.Unit))
		}
	}
	return strings.Join(parts, " ")
}
