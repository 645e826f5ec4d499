package main

import (
	"fmt"
	"runtime"
	"time"

	"mirza/internal/dram"
	"mirza/internal/replay"
	"mirza/internal/trace"
	"mirza/internal/track"
)

// replayPolicies run in turn in every rep of the replay workload.
var replayPolicies = []string{"mirza", "mint-rfm"}

type replayWorkload struct {
	spec        string
	full, smoke simScale
}

// replayStats is what a replay policy run's digest covers.
type replayStats struct {
	Replay []replay.Stats // per sub-channel, measure window
	Track  []track.Stats  // per sub-channel, whole run
}

type replayRun struct {
	measured
	stats replayStats
	acts  int64 // ACTs in the measure window
	accs  int64 // accesses in the measure window
	mitig int64 // tracker mitigations in the measure window
	l     layers
}

// once runs one policy through replay.NewRunner; a non-nil l wraps the
// generators and mitigators.
func (w replayWorkload) once(c *runCtx, spec trace.WorkloadSpec, policy string, sc simScale, l *layers, parent int, op string) (*replayRun, error) {
	// Free the previous run's simulator first: peak RSS then holds one
	// simulated machine, not a varying number of dead ones.
	runtime.GC()
	t0 := time.Now()
	setupSpan := c.spans.begin(parent, "setup", op)
	b, err := buildPolicy(policy, c.seed)
	if err != nil {
		return nil, err
	}
	gens, err := trace.PerCore(spec, simCores, c.seed)
	if err != nil {
		return nil, err
	}
	mits := make([]track.Mitigator, dram.Default().SubChannels)
	for sub := range mits {
		if mits[sub], err = b.NewMitigator(sub, track.NopSink{}); err != nil {
			return nil, err
		}
	}
	if l != nil {
		for i := range gens {
			gens[i] = wrapGen(gens[i], l)
		}
		for i := range mits {
			mits[i] = &tracedMit{mits[i], l}
		}
	}
	r, err := replay.NewRunner(replay.Config{IPS: spec.ImpliedIPS()}, gens, mits)
	if err != nil {
		return nil, err
	}
	r.Run(sc.warmup, nil)
	pre, mitPre := r.Stats(), mitigations(trackStats(mits))
	var before layers
	if l != nil {
		before = *l
	}
	runtime.GC() // collect set-up garbage now, not inside the measured ops
	c.spans.end(setupSpan)
	rr := &replayRun{measured: measured{setup: time.Since(t0)}}

	id := c.spans.begin(parent, "measure", op)
	rr.ops = measure(c, id, op, sc, func(t dram.Time) { r.Run(t, nil) })
	c.spans.end(id)

	post := r.Stats()
	for i := range post {
		post[i] = replay.Stats{
			Accesses: post[i].Accesses - pre[i].Accesses,
			ACTs:     post[i].ACTs - pre[i].ACTs,
			REFs:     post[i].REFs - pre[i].REFs,
			Alerts:   post[i].Alerts - pre[i].Alerts,
		}
		rr.acts += post[i].ACTs
		rr.accs += post[i].Accesses
	}
	ts := trackStats(mits)
	rr.stats = replayStats{Replay: post, Track: ts}
	rr.digest = digestOf(rr.stats)
	rr.note = fmt.Sprintf(" (%.2f M ACT/s)", ratio(float64(rr.acts)/1e6, totalMS(rr.ops)/1e3))
	rr.mitig = mitigations(ts) - mitPre
	if l != nil {
		rr.l = l.minus(before)
		c.layers.add(rr.l)
	}
	return rr, nil
}

func (w replayWorkload) run(c *runCtx) error {
	spec, err := trace.Lookup(w.spec)
	if err != nil {
		return err
	}
	sc := w.full
	if c.smoke {
		sc = w.smoke
	}
	var untraced, traced []*replayRun
	phase := func(tr bool, budget time.Duration) (int, error) {
		runs := &untraced
		if tr {
			runs = &traced
		}
		return repeatPolicies(c, tr, budget, replayPolicies, func(p string, parent int, op string) (*measured, error) {
			var l *layers
			if tr {
				l = &layers{}
			}
			rr, err := w.once(c, spec, p, sc, l, parent, op)
			if err != nil {
				return nil, err
			}
			*runs = append(*runs, rr)
			return &rr.measured, nil
		})
	}
	if !c.traced {
		_, err := phase(false, c.seconds)
		return err
	}
	if _, err := phase(false, c.seconds/2); err != nil {
		return err
	}
	tReps, err := phase(true, c.seconds/2)
	if err != nil {
		return err
	}

	var uOps, tOps []opTime
	var uACTs int64
	for _, rr := range untraced {
		uOps = append(uOps, rr.ops...)
		uACTs += rr.acts
	}
	uTotalS := totalMS(uOps) / 1e3
	var l layers
	var acts, accs, mitig int64
	for _, rr := range traced {
		l.add(rr.l)
		tOps = append(tOps, rr.ops...)
		acts += rr.acts
		accs += rr.accs
		mitig += rr.mitig
	}
	m := c.rep.layer
	l.record(m, c.clockNS, tReps, mitig)
	runS := totalMS(tOps) / 1e3 / float64(tReps)
	traceS, trackS := m["trace.self_s"], m["track.self_s"]
	m["replay.run_s"] = runS
	m["replay.self_s"] = runS - traceS - trackS
	m["replay.act_ratio"] = ratio(float64(acts), float64(accs))
	m["replay.macts_per_s"] = ratio(float64(uACTs)/1e6, uTotalS)
	m["traced_total_s"] = runS
	m["trace_overhead"] = ratio(meanRefs(tOps), meanRefs(uOps)) - 1

	fmt.Fprintf(c.out, "%s: %.2f M ACT/s untraced, tracing overhead %+.1f%%\n",
		spec.Name, m["replay.macts_per_s"], 100*m["trace_overhead"])
	fmt.Fprintf(c.out, "reconcile (per rep): replay.run %.4fs = trace %.4fs + track %.4fs + replay self %.4fs\n",
		runS, traceS, trackS, m["replay.self_s"])
	return nil
}
