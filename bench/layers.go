package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
)

// The traced run measures layers from outside: it wraps the interfaces the
// layer APIs accept (trace.Generator, the track.Mitigator factory, the
// core-to-channel submit func) and counts every call through them. Reading
// the clock on every call costs more than a tracker's OnActivate itself, so
// the hot boundaries read it on one call in sampleEvery and subtract the
// calibrated cost of an empty sampled span; rare calls are always clocked.

// sampleEvery is the clock-sampling period of hot boundaries (a power of 2).
const sampleEvery = 64

// callTimer accumulates one boundary's calls and its clocked durations.
type callTimer struct {
	calls   int64
	clocked int64
	ns      int64 // sum of clocked durations
}

// sample counts a call and reports whether to clock it.
func (t *callTimer) sample() bool {
	t.calls++
	return t.calls&(sampleEvery-1) == 0
}

// stop records the duration of a clocked call that began at t0.
func (t *callTimer) stop(t0 time.Time) {
	t.clocked++
	t.ns += int64(time.Since(t0))
}

// estimateNS is the boundary's estimated total self time: every call
// charged the mean clocked duration less the clock's own cost.
func (t callTimer) estimateNS(clockNS float64) float64 {
	if t.clocked == 0 {
		return 0
	}
	per := float64(t.ns)/float64(t.clocked) - clockNS
	if per < 0 {
		per = 0
	}
	return per * float64(t.calls)
}

func (t callTimer) minus(o callTimer) callTimer {
	return callTimer{t.calls - o.calls, t.clocked - o.clocked, t.ns - o.ns}
}

// layers is the aggregated counters of one traced simulation. It is used by
// a single goroutine; compare snapshots with minus.
type layers struct {
	next     callTimer // trace.Generator.Next
	activate callTimer // Mitigator.OnActivate
	wants    callTimer // Mitigator.WantsALERT
	ref      callTimer // Mitigator.OnREF
	rfm      callTimer // Mitigator.OnRFM
	service  callTimer // Mitigator.ServiceALERT
}

func (l layers) minus(o layers) layers {
	return layers{
		next:     l.next.minus(o.next),
		activate: l.activate.minus(o.activate),
		wants:    l.wants.minus(o.wants),
		ref:      l.ref.minus(o.ref),
		rfm:      l.rfm.minus(o.rfm),
		service:  l.service.minus(o.service),
	}
}

func (l *layers) add(o layers) {
	for _, p := range [][2]*callTimer{
		{&l.next, &o.next}, {&l.activate, &o.activate}, {&l.wants, &o.wants},
		{&l.ref, &o.ref}, {&l.rfm, &o.rfm}, {&l.service, &o.service},
	} {
		p[0].calls += p[1].calls
		p[0].clocked += p[1].clocked
		p[0].ns += p[1].ns
	}
}

// traceSelfS is the estimated host time inside the trace generators.
func (l layers) traceSelfS(clockNS float64) float64 { return l.next.estimateNS(clockNS) / 1e9 }

// trackSelfS is the estimated host time inside the mitigators.
func (l layers) trackSelfS(clockNS float64) float64 {
	ns := 0.0
	for _, t := range []callTimer{l.activate, l.wants, l.ref, l.rfm, l.service} {
		ns += t.estimateNS(clockNS)
	}
	return ns / 1e9
}

// record sets the trace and track per-layer metrics from the counters of
// reps traced reps; mitigations is the trackers' count over them.
func (l layers) record(m map[string]float64, clockNS float64, reps int, mitigations int64) {
	perRep := func(x float64) float64 { return x / float64(reps) }
	m["trace.next_calls"] = perRep(float64(l.next.calls))
	m["trace.next_ns"] = ratio(l.next.estimateNS(clockNS), float64(l.next.calls))
	m["trace.self_s"] = perRep(l.traceSelfS(clockNS))
	m["track.activate_calls"] = perRep(float64(l.activate.calls))
	m["track.activate_ns"] = ratio(l.activate.estimateNS(clockNS), float64(l.activate.calls))
	m["track.ref_calls"] = perRep(float64(l.ref.calls))
	m["track.rfm_calls"] = perRep(float64(l.rfm.calls))
	m["track.alert_services"] = perRep(float64(l.service.calls))
	m["track.mitigations"] = perRep(float64(mitigations))
	m["track.self_s"] = perRep(l.trackSelfS(clockNS))
}

// counters renders the raw boundary counters for the trace file.
func (l layers) counters() map[string]callTimer {
	return map[string]callTimer{
		"trace.Next": l.next, "track.OnActivate": l.activate, "track.WantsALERT": l.wants,
		"track.OnREF": l.ref, "track.OnRFM": l.rfm, "track.ServiceALERT": l.service,
	}
}

// footprinter is the optional interface cpu.NewSystem and replay.NewRunner
// prefault through.
type footprinter interface{ FootprintBytes() uint64 }

type tracedGen struct {
	inner trace.Generator
	l     *layers
}

func (g *tracedGen) Name() string { return g.inner.Name() }

func (g *tracedGen) Next(op *trace.Op) {
	if !g.l.next.sample() {
		g.inner.Next(op)
		return
	}
	t0 := time.Now()
	g.inner.Next(op)
	g.l.next.stop(t0)
}

// tracedGenFP is a tracedGen over a generator with a footprint: dropping
// FootprintBytes would silently change the simulated page mapping.
type tracedGenFP struct {
	*tracedGen
	fp footprinter
}

func (g tracedGenFP) FootprintBytes() uint64 { return g.fp.FootprintBytes() }

// wrapGen returns g counted into l, exposing exactly the optional
// interfaces g has.
func wrapGen(g trace.Generator, l *layers) trace.Generator {
	t := &tracedGen{g, l}
	if fp, ok := g.(footprinter); ok {
		return tracedGenFP{t, fp}
	}
	return t
}

// tracedMit counts a mitigator's calls into l. Unwrap keeps track.Source
// (and so the tracker statistics) reachable through it.
type tracedMit struct {
	inner track.Mitigator
	l     *layers
}

func (m *tracedMit) Name() string            { return m.inner.Name() }
func (m *tracedMit) Unwrap() track.Mitigator { return m.inner }

func (m *tracedMit) OnActivate(bank, row int, now dram.Time) {
	if !m.l.activate.sample() {
		m.inner.OnActivate(bank, row, now)
		return
	}
	t0 := time.Now()
	m.inner.OnActivate(bank, row, now)
	m.l.activate.stop(t0)
}

func (m *tracedMit) WantsALERT() bool {
	if !m.l.wants.sample() {
		return m.inner.WantsALERT()
	}
	t0 := time.Now()
	v := m.inner.WantsALERT()
	m.l.wants.stop(t0)
	return v
}

func (m *tracedMit) OnREF(refIndex int, now dram.Time) {
	m.l.ref.calls++
	t0 := time.Now()
	m.inner.OnREF(refIndex, now)
	m.l.ref.stop(t0)
}

func (m *tracedMit) OnRFM(bank int, now dram.Time) {
	m.l.rfm.calls++
	t0 := time.Now()
	m.inner.OnRFM(bank, now)
	m.l.rfm.stop(t0)
}

func (m *tracedMit) ServiceALERT(now dram.Time) {
	m.l.service.calls++
	t0 := time.Now()
	m.inner.ServiceALERT(now)
	m.l.service.stop(t0)
}

// mitFactory is the factory shape mem.Config.NewMitigator takes.
type mitFactory = func(sub int, sink track.Sink) track.Mitigator

func wrapFactory(f mitFactory, l *layers) mitFactory {
	return func(sub int, sink track.Sink) track.Mitigator {
		return &tracedMit{f(sub, sink), l}
	}
}

// nopGen is the empty call the clock calibration times.
type nopGen struct{}

func (nopGen) Next(*trace.Op) {}
func (nopGen) Name() string   { return "nop" }

// calibrateClock returns the host cost, in ns, of an empty sampled span:
// two clock reads around an interface call that does nothing. It is the
// median of several batches, so a preempted batch does not skew it.
func calibrateClock() float64 {
	var g trace.Generator = nopGen{}
	var op trace.Op
	batches := make([]float64, 0, 31)
	for b := 0; b < 31; b++ {
		const n = 2048
		var total time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			g.Next(&op)
			total += time.Since(t0)
		}
		batches = append(batches, float64(total)/n)
	}
	return median(batches)
}

// span is one timed interval of the traced run. Parent links a span to the
// one that caused it; Op is shared by every span of one op.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Op      string  `json:"op,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how untraced runs use it.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (s *spanLog) begin(parent int, name, op string) int {
	if s == nil {
		return 0
	}
	at := float64(time.Since(s.t0)) / 1e6
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{ID: len(s.spans) + 1, Parent: parent, Name: name, Op: op, StartMS: at})
	return len(s.spans)
}

// end closes span id.
func (s *spanLog) end(id int) {
	if s == nil || id == 0 {
		return
	}
	at := float64(time.Since(s.t0)) / 1e6
	s.mu.Lock()
	s.spans[id-1].EndMS = at
	s.mu.Unlock()
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	ClockNS  float64              `json:"clock_ns"`
	Counters map[string]callTimer `json:"counters,omitempty"`
	Spans    []span               `json:"spans"`
}

func (t callTimer) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]int64{"calls": t.calls, "clocked": t.clocked, "clocked_ns": t.ns})
}

func (s *spanLog) write(path string, tf traceFile) error {
	s.mu.Lock()
	tf.Spans = s.spans
	b, err := json.Marshal(tf)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
