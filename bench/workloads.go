package main

import (
	"fmt"
	"io"
	"time"

	"mirza/internal/dram"
)

// options are one run's settings.
type options struct {
	seed     uint64
	seconds  time.Duration // measured time (a traced run splits it untraced/traced)
	traced   bool
	smoke    bool   // the test scale: tiny sizes through the same code
	traceOut string // where a traced run writes its spans ("" = nowhere)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	run       func(c *runCtx) error
}

// workloads lists every workload; BENCHMARK.json names the same ones.
var workloads = []workload{
	{
		name: "timing-bw",
		why:  "8-core fotonik3d timing sim (80% bus use) under mint-rfm, prac and mirza: the mem command path and kernel do most of the work",
		run: timingWorkload{spec: "fotonik3d",
			full:  simScale{warmup: 250 * dram.Microsecond, slice: 100 * dram.Microsecond, slices: 10},
			smoke: simScale{warmup: 20 * dram.Microsecond, slice: 10 * dram.Microsecond, slices: 2},
		}.run,
	},
	{
		name: "timing-light",
		why:  "the same system on blender (29% bus use): the channel mostly idles, so cores, trace generation and event dispatch weigh more",
		run: timingWorkload{spec: "blender",
			full:  simScale{warmup: 500 * dram.Microsecond, slice: 500 * dram.Microsecond, slices: 10},
			smoke: simScale{warmup: 50 * dram.Microsecond, slice: 50 * dram.Microsecond, slices: 2},
		}.run,
	},
	{
		name: "replay",
		why:  "activation replay of fotonik3d under mirza and mint-rfm: trace generation and tracker OnActivate only, no mem, sim or cpu work",
		run: replayWorkload{spec: "fotonik3d",
			full:  simScale{warmup: 2 * dram.Millisecond, slice: dram.Millisecond, slices: 16},
			smoke: simScale{warmup: 100 * dram.Microsecond, slice: 100 * dram.Microsecond, slices: 2},
		}.run,
	},
	{
		name: "serve-hit",
		why:  "daemon over loopback HTTP, 100 req/s open loop re-requesting results set-up cached: only the serve, HTTP and result-cache path runs",
		run:  serveWorkload{hits: true}.run,
	},
	{
		name: "serve-miss",
		why:  "the same daemon and load, each request a static experiment under a fresh seed: the job queue, a worker, the harness and the cache insert run too",
		run:  serveWorkload{hits: false}.run,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCtx is the state of one workload run.
type runCtx struct {
	options
	out     io.Writer
	rep     *report
	chk     *checker
	spans   *spanLog // nil when untraced
	clockNS float64  // cost of an empty sampled span (traced runs)
	layers  layers   // every traced simulation's counters, for the trace file
}

// verify checks one op's digest and counts it as attempted (and failed when
// wrong).
func (c *runCtx) verify(op, digest string) {
	ok, why := c.chk.check(op, digest)
	c.rep.check(ok, "%s", why)
}

// runWorkload runs w once and returns its result line.
func runWorkload(w workload, o options, out io.Writer) (result, error) {
	pinned, err := loadPinned()
	if err != nil {
		return result{}, err
	}
	set := w.name
	if o.smoke {
		set += "@smoke"
	}
	c := &runCtx{options: o, out: out, rep: newReport(out), chk: newChecker(set, pinned, o.seed)}
	// Make the reference tables resident before anything else, so the peak
	// RSS always includes them and peakRSSMB can leave them out exactly.
	timeRef()
	if o.traced {
		c.spans = newSpanLog()
		c.clockNS = calibrateClock()
		fmt.Fprintf(out, "clock: an empty sampled span costs %.1f ns\n", c.clockNS)
	}
	if err := w.run(c); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if c.rep.failed > 0 {
		fmt.Fprintf(out, "observed digests: %s\n", c.chk.observed())
	}
	if o.traced && o.traceOut != "" {
		tf := traceFile{Workload: w.name, Seed: o.seed, ClockNS: c.clockNS, Counters: c.layers.counters()}
		if err := c.spans.write(o.traceOut, tf); err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
	}
	return c.rep.result(o.traced)
}

// simScale sizes one policy run of a simulation workload: a warmup, part
// of set-up, then the measured ops, each a fixed slice of simulated time.
type simScale struct {
	warmup, slice dram.Time
	slices        int
}

// measured is what one policy run of a simulation workload reports.
type measured struct {
	setup  time.Duration
	ops    []opTime
	digest string // of the run's simulated statistics
	note   string // appended to the rep's progress line
}

// measure runs a policy run's ops, each after a reference loop; advance
// simulates up to an absolute time.
func measure(c *runCtx, parent int, op string, sc simScale, advance func(dram.Time)) []opTime {
	ops := make([]opTime, 0, sc.slices)
	for i := 1; i <= sc.slices; i++ {
		ref := timeRef()
		id := c.spans.begin(parent, "slice", op)
		t0 := time.Now()
		advance(sc.warmup + dram.Time(i)*sc.slice)
		ops = append(ops, opTime{msSince(t0), ref})
		c.spans.end(id)
	}
	return ops
}

// repeatPolicies runs every policy in turn, rep after rep, until budget has
// elapsed. It checks each run's digest and, for untraced reps, records the
// ops and the rep's set-up time (its policies' set-ups summed).
func repeatPolicies(c *runCtx, traced bool, budget time.Duration, policies []string,
	run func(policy string, parent int, op string) (*measured, error)) (reps int, err error) {
	name := "rep"
	if traced {
		name = "traced-rep"
	}
	err = repeat(budget, func(rep int) error {
		reps++
		repSpan := c.spans.begin(0, name, fmt.Sprintf("%s%d", name, rep))
		defer c.spans.end(repSpan)
		var setup time.Duration
		line := fmt.Sprintf("%s %d:", name, rep)
		for _, p := range policies {
			m, err := run(p, repSpan, fmt.Sprintf("%s%d/%s", name, rep, p))
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			c.verify(p, m.digest)
			setup += m.setup
			if !traced {
				c.rep.ops = append(c.rep.ops, m.ops...)
			}
			line += fmt.Sprintf(" %s %.3fs%s", p, totalMS(m.ops)/1e3, m.note)
		}
		if !traced {
			c.rep.setups = append(c.rep.setups, setup.Seconds())
		}
		fmt.Fprintf(c.out, "%s (set-up %.3fs)\n", line, setup.Seconds())
		return nil
	})
	return reps, err
}

// repeat runs f for rep 0, 1, ... until budget has elapsed, at least once.
func repeat(budget time.Duration, f func(rep int) error) error {
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		if err := f(rep); err != nil {
			return err
		}
	}
	return nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
