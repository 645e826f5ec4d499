package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below and
// BENCHMARK.json must agree; TestMetricsMatchSpec keeps them in sync.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// workload from untraced runs. An "op" is one unit of work whose host time a
// user waits for: a fixed slice of simulated time for the simulation
// workloads, one HTTP request for the serve workloads. Op times are in ref
// units (see refLoop); their wall-clock values are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ref", "ref"},
	{"op_p90_ref", "ref"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's attribution metrics. Every workload prints
// all of them; a layer the workload does not drive from outside reads 0.
var perLayer = []metricDef{
	{"trace.next_calls", "count"},
	{"trace.next_ns", "ns"},
	{"trace.self_s", "s"},
	{"track.activate_calls", "count"},
	{"track.activate_ns", "ns"},
	{"track.ref_calls", "count"},
	{"track.rfm_calls", "count"},
	{"track.alert_services", "count"},
	{"track.mitigations", "count"},
	{"track.self_s", "s"},
	{"replay.run_s", "s"},
	{"replay.self_s", "s"},
	{"replay.act_ratio", "ratio"},
	{"replay.macts_per_s", "M/s"},
	{"mem.submit_calls", "count"},
	{"mem.acts", "count"},
	{"mem.row_hit_ratio", "ratio"},
	{"mem.rfms", "count"},
	{"mem.alerts", "count"},
	{"mem.bus_util", "ratio"},
	{"mem.cmd_path_s", "s"},
	{"mem.cmd_path_ns_per_req", "ns"},
	{"mem.replay_act_delta", "ratio"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"cpu.sim_mips", "M/s"},
	{"cpu.remainder_s", "s"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.shed", "count"},
	{"serve.coalesced", "count"},
	{"load.lag_p90_ms", "ms"},
	{"load.sent", "count"},
	{"op.count", "count"},
	{"op.p50_ms", "ms"},
	{"op.p90_ms", "ms"},
	{"op.tail_pct", "%"},
	{"op.tail_ms", "ms"},
	{"op.ref_ms", "ms"},
	{"traced_total_s", "s"},
	{"trace_overhead", "ratio"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The machine this benchmark was defined on changes speed by up to ±25%
// within ten seconds (a busy loop's rate swung between 860 and 1430 units
// per second), because other tenants share its host. That drift swamps
// run-to-run comparisons of raw wall time, so every op is also timed in ref
// units: its wall time divided by the wall time of a fixed reference loop
// run just before it, which slows down with the machine.
//
// The simulators' hot state spans the private L2 (2 MiB here) and the L3
// that other tenants share, so the loop walks one table of each size. On a
// 90 s timing-light run, the medians of 15 s segments spread by 22% in wall
// time, 17% against a 256 KiB-only loop, and 2.8% against this one.

// refSmall (256 KiB) stays in L2; refLarge (16 MiB) does not.
var (
	refSmall [1 << 16]uint32
	refLarge [1 << 22]uint32
	refSink  uint32
)

// refTablesMB is the reference tables' resident size, left out of peak RSS.
const refTablesMB = float64(len(refSmall)+len(refLarge)) * 4 / (1 << 20)

// refLoop is the fixed reference work, about 2 ms on the defining machine.
func refLoop() uint32 { return refWalk(refSmall[:], 200_000) + refWalk(refLarge[:], 100_000) }

// refWalk does rounds of integer arithmetic with a dependent read and a
// write at pseudo-random places in table (whose length is a power of 2).
func refWalk(table []uint32, rounds int) uint32 {
	mask := len(table) - 1
	x := uint32(2463534242)
	var s uint32
	for i := 0; i < rounds; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		s += table[int(x)&mask]
		table[int(x>>7)&mask] = s
	}
	return s
}

// timeRef runs the reference loop and returns its wall time in ms.
func timeRef() float64 {
	t0 := time.Now()
	refSink += refLoop()
	return msSince(t0)
}

// opTime is one op's wall time and the reference loop's just before it.
type opTime struct{ ms, refMS float64 }

// refs is the op's time in ref units.
func (o opTime) refs() float64 { return o.ms / o.refMS }

// report accumulates what one workload run measured.
type report struct {
	out io.Writer

	ops       []opTime  // untraced ops
	setups    []float64 // set-up host times, s
	attempted int
	failed    int
	layer     map[string]float64
}

func newReport(out io.Writer) *report {
	return &report{out: out, layer: make(map[string]float64)}
}

// check records one checked unit of work (a policy run or a request).
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.out, "FAIL: "+format+"\n", args...)
	}
}

// result assembles the result line: the end-to-end metrics untraced, the
// per-layer metrics traced.
func (r *report) result(traced bool) (result, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	if len(r.ops) == 0 || len(r.setups) == 0 {
		return res, fmt.Errorf("measured %d ops and %d set-ups; the run is too short", len(r.ops), len(r.setups))
	}
	var ms, refs, refMS []float64
	for _, o := range r.ops {
		ms = append(ms, o.ms)
		refs = append(refs, o.refs())
		refMS = append(refMS, o.refMS)
	}
	ms, refs = sorted(ms), sorted(refs)
	tailPct, tailOK := tailPercentile(len(ms))
	tail := "none (too few ops)"
	if tailOK {
		r.layer["op.tail_pct"] = tailPct
		r.layer["op.tail_ms"] = percentile(ms, tailPct)
		tail = fmt.Sprintf("p%g %.3fms", tailPct, r.layer["op.tail_ms"])
	}
	r.layer["op.count"] = float64(len(ms))
	r.layer["op.p50_ms"] = percentile(ms, 50)
	r.layer["op.p90_ms"] = percentile(ms, 90)
	r.layer["op.ref_ms"] = median(refMS)
	fmt.Fprintf(r.out, "ops: n=%d, p50 %.3fms (%.3f ref), p90 %.3fms (%.3f ref), tail %s; ref loop %.3fms; set-up median %.3fs of %d\n",
		len(ms), r.layer["op.p50_ms"], percentile(refs, 50), r.layer["op.p90_ms"], percentile(refs, 90),
		tail, r.layer["op.ref_ms"], median(r.setups), len(r.setups))

	if traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{r.layer[d.name], d.unit}
		}
		return res, nil
	}
	vals := map[string]float64{
		"setup_s":     median(r.setups),
		"op_p50_ref":  percentile(refs, 50),
		"op_p90_ref":  percentile(refs, 90),
		"peak_rss_mb": peakRSSMB(),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	return res, nil
}

// meanRefs is the mean op time of ops in ref units.
func meanRefs(ops []opTime) float64 {
	s := 0.0
	for _, o := range ops {
		s += o.refs()
	}
	return s / float64(len(ops))
}

// totalMS is the summed wall time of ops.
func totalMS(ops []opTime) float64 {
	s := 0.0
	for _, o := range ops {
		s += o.ms
	}
	return s
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB) less the reference tables, which every run touches in
// full.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss)/1024 - refTablesMB
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// percentile returns the p-th percentile (0..100) of ascending s, linearly
// interpolated between the closest ranks.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads read the same here as in any script checking them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	ld := len(d)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// tailGrid lists the percentiles a tail is reported at, in tenths.
var tailGrid = []int{500, 750, 900, 950, 980, 990, 995, 999}

// tailPercentile returns the highest percentile of tailGrid that leaves at
// least ten of n samples beyond it; false when n is too small for any.
func tailPercentile(n int) (float64, bool) {
	best := -1
	for _, p := range tailGrid {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	if best < 0 {
		return 0, false
	}
	return float64(best) / 10, true
}
