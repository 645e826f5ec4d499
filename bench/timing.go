package main

import (
	"fmt"
	"runtime"
	"time"

	"mirza/internal/cpu"
	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/sim"
	"mirza/internal/trace"
	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register the mitigation policies
	"mirza/internal/vmap"
)

const (
	simCores = 8
	simTRHD  = 1000
)

// timingPolicies run in turn in every rep: proactive RFM, PRAC's longer
// tRC, and MIRZA's filter and sampler.
var timingPolicies = []string{"mint-rfm", "prac", "mirza"}

type timingWorkload struct {
	spec        string
	full, smoke simScale
}

func buildPolicy(name string, seed uint64) (*track.Built, error) {
	return track.Build(name, nil, track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     simTRHD,
		Seed:     seed,
	})
}

func memConfig(b *track.Built, f mitFactory) mem.Config {
	return mem.Config{Timing: b.Timing(), Mapping: dram.StridedR2SA, RFMBAT: b.RFMBAT(), NewMitigator: f}
}

func coreConfig(spec trace.WorkloadSpec) cpu.CoreConfig {
	return cpu.CoreConfig{MSHR: spec.MLPLimit()}
}

// timingStats is what a policy run's digest covers: the modelled machine's
// behaviour in the measure window.
type timingStats struct {
	Retired []int64       // instructions per core
	Mem     mem.Stats     // channel counters
	Track   []track.Stats // tracker counters per sub-channel (whole run)
}

// policyRun is one measured policy run of a timing workload.
type policyRun struct {
	measured
	stats  timingStats
	events uint64 // kernel events in the measure window
	mitig  int64  // tracker mitigations in the measure window

	// Traced runs only.
	l          layers  // boundary counters in the measure window
	submits    int64   // core-to-channel submits in the measure window
	cmdPathS   float64 // command-path host time of the open-loop re-run
	rerunACTs  int64
	rerunTrack float64 // tracker host time inside the re-run
}

// window snapshots a simulation at the start of its measure window.
type window struct {
	cores   []*cpu.Core
	ch      *mem.Channel
	k       *sim.Kernel
	retired []int64
	mem     mem.Stats
	events  uint64
	mitig   int64
}

func openWindow(cores []*cpu.Core, ch *mem.Channel, k *sim.Kernel) *window {
	return &window{cores: cores, ch: ch, k: k, retired: retired(cores, k.Now()),
		mem: ch.Stats(), events: k.Executed(), mitig: mitigations(trackStats(ch.Mitigators()))}
}

func (w *window) close(pr *policyRun) {
	end := retired(w.cores, w.k.Now())
	for i := range end {
		end[i] -= w.retired[i]
	}
	ts := trackStats(w.ch.Mitigators())
	pr.stats = timingStats{Retired: end, Mem: w.ch.Stats().Sub(w.mem), Track: ts}
	pr.digest = digestOf(pr.stats)
	pr.events = w.k.Executed() - w.events
	pr.mitig = mitigations(ts) - w.mitig
}

// retired brings each core's retirement count up to now (as
// cpu.System.Snapshot does) and returns the counts.
func retired(cores []*cpu.Core, now dram.Time) []int64 {
	out := make([]int64, len(cores))
	for i, c := range cores {
		c.SyncClock(now)
		out[i] = c.Retired()
	}
	return out
}

// trackStats reads each mitigator's counters through track.Source, which
// sees through decorators that Unwrap.
func trackStats(mits []track.Mitigator) []track.Stats {
	out := make([]track.Stats, len(mits))
	for i, m := range mits {
		if src := track.Source(m); src != nil {
			out[i] = src.TrackStats()
		}
	}
	return out
}

func mitigations(ts []track.Stats) int64 {
	var n int64
	for _, s := range ts {
		n += s.Mitigations
	}
	return n
}

// untraced runs one policy on the production path, cpu.NewSystem.
func (w timingWorkload) untraced(c *runCtx, spec trace.WorkloadSpec, policy string, sc simScale, parent int, op string) (*policyRun, error) {
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
	sys, err := cpu.NewSystem(cpu.SystemConfig{Cores: simCores, Core: coreConfig(spec), Mem: memConfig(b, b.Factory())}, gens)
	if err != nil {
		return nil, err
	}
	sys.Run(sc.warmup)
	win := openWindow(sys.Cores, sys.Channel, sys.Kernel)
	runtime.GC() // collect set-up garbage now, not inside the measured ops
	c.spans.end(setupSpan)
	pr := &policyRun{measured: measured{setup: time.Since(t0)}}

	id := c.spans.begin(parent, "measure", op)
	pr.ops = measure(c, id, op, sc, sys.Run)
	c.spans.end(id)
	win.close(pr)
	return pr, nil
}

// traced runs one policy on a system assembled from cpu.NewCore exactly as
// cpu.NewSystem assembles it, with every layer boundary wrapped, then
// re-runs the recorded request stream through the command path alone.
func (w timingWorkload) traced(c *runCtx, spec trace.WorkloadSpec, policy string, sc simScale, parent int, op string) (*policyRun, error) {
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
	l := &layers{}
	k := &sim.Kernel{}
	ch, err := mem.NewChannel(k, memConfig(b, wrapFactory(b.Factory(), l)))
	if err != nil {
		return nil, err
	}
	mapper := vmap.NewMapper(ch.Geometry().CapacityBytes())
	translate := func(core int, vaddr uint64) uint64 { return mapper.Translate(core, vaddr) }
	tap := &submitTap{k: k, ch: ch}
	cores := make([]*cpu.Core, len(gens))
	for i, g := range gens {
		tg := wrapGen(g, l)
		prefault(mapper, i, tg)
		cores[i] = cpu.NewCore(i, coreConfig(spec), k, tg, translate, tap.submit, nil)
	}
	for _, core := range cores {
		core.Start()
	}
	k.RunUntil(sc.warmup)
	win := openWindow(cores, ch, k)
	before, submitsBefore := *l, tap.calls
	tap.startRecording(sc.warmup, dram.Time(sc.slices)*sc.slice)
	runtime.GC() // collect set-up garbage now, not inside the measured ops
	c.spans.end(setupSpan)
	pr := &policyRun{measured: measured{setup: time.Since(t0)}}

	id := c.spans.begin(parent, "measure", op)
	pr.ops = measure(c, id, op, sc, k.RunUntil)
	c.spans.end(id)
	win.close(pr)
	pr.l = l.minus(before)
	pr.submits = tap.calls - submitsBefore
	c.layers.add(pr.l)

	id = c.spans.begin(parent, "mem-replay", op)
	end := sc.warmup + dram.Time(sc.slices)*sc.slice
	err = rerunMem(c, b, tap.stream, sc.warmup, end, pr)
	c.spans.end(id)
	return pr, err
}

// prefault touches g's footprint in virtual-address order, as cpu.NewSystem
// does, through the optional interface g exposes.
func prefault(m *vmap.Mapper, asid int, g trace.Generator) {
	fp, ok := g.(footprinter)
	if !ok {
		return
	}
	for off := uint64(0); off < fp.FootprintBytes(); off += vmap.SuperBytes {
		m.Translate(asid, off)
	}
}

// arrival is one recorded core-to-channel submit.
type arrival struct {
	at    dram.Time
	addr  uint64
	write bool
}

// submitTap is the wrapped submit func: it counts submits and records the
// measure window's request stream for the command-path re-run.
type submitTap struct {
	k         *sim.Kernel
	ch        *mem.Channel
	calls     int64
	recording bool
	stream    []arrival
}

// startRecording begins recording, sizing the buffer from the warmup's
// submit rate so the measure window rarely grows it.
func (t *submitTap) startRecording(warmup, window dram.Time) {
	t.recording = true
	t.stream = make([]arrival, 0, int(float64(t.calls)*float64(window)/float64(warmup)*1.25)+1024)
}

func (t *submitTap) submit(r *mem.Request) {
	t.calls++
	if t.recording {
		t.stream = append(t.stream, arrival{t.k.Now(), r.Addr, r.Write})
	}
	t.ch.Submit(r)
}

// feeder submits a recorded stream into a channel open-loop at the
// recorded arrival times, recycling completed requests.
type feeder struct {
	k      *sim.Kernel
	submit func(*mem.Request)
	stream []arrival
	next   int
	free   []*mem.Request
	ev     sim.Event
}

func (f *feeder) get() *mem.Request {
	if n := len(f.free); n > 0 {
		r := f.free[n-1]
		f.free = f.free[:n-1]
		return r
	}
	r := &mem.Request{}
	r.Done = func(dram.Time) { f.free = append(f.free, r) }
	return r
}

// Fire implements sim.Handler.
func (f *feeder) Fire(now dram.Time) {
	for f.next < len(f.stream) && f.stream[f.next].at <= now {
		a := f.stream[f.next]
		r := f.get()
		r.Addr, r.Write = a.addr, a.write
		f.submit(r)
		f.next++
	}
	if f.next < len(f.stream) {
		f.k.ScheduleEvent(&f.ev, f.stream[f.next].at)
	}
}

// rerunMem replays the recorded stream into a fresh channel with the same
// policy on its own kernel and times the command path alone: the re-run's
// host time less its tracker's. The idle lead-in up to from aligns the
// refresh phase with the closed-loop run; the queue contents at from do
// not carry over, which mem.replay_act_delta reports.
func rerunMem(c *runCtx, b *track.Built, stream []arrival, from, to dram.Time, pr *policyRun) error {
	l := &layers{}
	k := &sim.Kernel{}
	ch, err := mem.NewChannel(k, memConfig(b, wrapFactory(b.Factory(), l)))
	if err != nil {
		return err
	}
	k.RunUntil(from)
	f := &feeder{k: k, submit: ch.Submit, stream: stream}
	for i := 0; i < 1024; i++ {
		f.free = append(f.free, f.get())
	}
	f.ev.Bind(f)
	if len(stream) > 0 {
		k.ScheduleEvent(&f.ev, stream[0].at)
	}
	pre, before := ch.Stats(), *l
	runtime.GC() // collect set-up garbage now, not inside the timed re-run
	t0 := time.Now()
	k.RunUntil(to)
	wall := time.Since(t0).Seconds()
	pr.rerunTrack = l.minus(before).trackSelfS(c.clockNS)
	pr.cmdPathS = wall - pr.rerunTrack
	pr.rerunACTs = ch.Stats().Sub(pre).ACTs
	return nil
}

func (w timingWorkload) run(c *runCtx) error {
	spec, err := trace.Lookup(w.spec)
	if err != nil {
		return err
	}
	sc := w.full
	if c.smoke {
		sc = w.smoke
	}
	var untraced, traced []*policyRun
	phase := func(tr bool, budget time.Duration) (int, error) {
		run, runs := w.untraced, &untraced
		if tr {
			run, runs = w.traced, &traced
		}
		return repeatPolicies(c, tr, budget, timingPolicies, func(p string, parent int, op string) (*measured, error) {
			pr, err := run(c, spec, p, sc, parent, op)
			if err != nil {
				return nil, err
			}
			*runs = append(*runs, pr)
			return &pr.measured, nil
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
	w.layerMetrics(c, spec, sc, untraced, traced, tReps)
	return nil
}

// layerMetrics derives the per-layer metrics, per rep, from the traced
// reps, and the throughput and tracing overhead against the untraced ones.
func (w timingWorkload) layerMetrics(c *runCtx, spec trace.WorkloadSpec, sc simScale, untraced, traced []*policyRun, tReps int) {
	var uOps, tOps []opTime
	var uInstr int64
	var uEvents uint64
	for _, pr := range untraced {
		uOps = append(uOps, pr.ops...)
		for _, n := range pr.stats.Retired {
			uInstr += n
		}
		uEvents += pr.events
	}
	uTotalS := totalMS(uOps) / 1e3

	var l layers
	var st mem.Stats
	var cmdPathS, rerunTrackS float64
	var submits, rerunACTs, mitig int64
	var events uint64
	for _, pr := range traced {
		l.add(pr.l)
		st.Add(pr.stats.Mem)
		tOps = append(tOps, pr.ops...)
		cmdPathS += pr.cmdPathS
		rerunTrackS += pr.rerunTrack
		submits += pr.submits
		rerunACTs += pr.rerunACTs
		mitig += pr.mitig
		events += pr.events
	}
	m := c.rep.layer
	l.record(m, c.clockNS, tReps, mitig)
	perRep := func(x float64) float64 { return x / float64(tReps) }
	traceS, trackS := m["trace.self_s"], m["track.self_s"]
	totalS := perRep(totalMS(tOps) / 1e3)
	cmdS := perRep(cmdPathS)
	remainder := totalS - traceS - trackS - cmdS
	windowPS := float64(len(traced)) * float64(dram.Time(sc.slices)*sc.slice)
	subs := float64(dram.Default().SubChannels)

	m["mem.submit_calls"] = perRep(float64(submits))
	m["mem.acts"] = perRep(float64(st.ACTs))
	m["mem.row_hit_ratio"] = ratio(float64(st.RowHits), float64(st.RowHits+st.RowMisses))
	m["mem.rfms"] = perRep(float64(st.RFMs))
	m["mem.alerts"] = perRep(float64(st.Alerts))
	m["mem.bus_util"] = ratio(float64(st.BusBusy), windowPS*subs)
	m["mem.cmd_path_s"] = cmdS
	m["mem.cmd_path_ns_per_req"] = ratio(cmdPathS*1e9, float64(submits))
	m["mem.replay_act_delta"] = ratio(float64(rerunACTs-st.ACTs), float64(st.ACTs))
	m["sim.events"] = perRep(float64(events))
	m["sim.ns_per_event"] = ratio(uTotalS*1e9, float64(uEvents))
	m["cpu.sim_mips"] = ratio(float64(uInstr)/1e6, uTotalS)
	m["cpu.remainder_s"] = remainder
	m["traced_total_s"] = totalS
	m["trace_overhead"] = ratio(meanRefs(tOps), meanRefs(uOps)) - 1

	fmt.Fprintf(c.out, "%s: %.1f simulated MIPS untraced, tracing overhead %+.1f%%\n",
		spec.Name, m["cpu.sim_mips"], 100*m["trace_overhead"])
	fmt.Fprintf(c.out, "reconcile (per rep): traced total %.4fs = trace %.4fs + track %.4fs + mem cmd path %.4fs + cpu remainder %.4fs\n",
		totalS, traceS, trackS, cmdS, remainder)
	fmt.Fprintf(c.out, "mem re-run: %d ACTs vs %d closed-loop (%+.2f%%), its tracker time %.4fs subtracted\n",
		rerunACTs, st.ACTs, 100*m["mem.replay_act_delta"], rerunTrackS)
}
