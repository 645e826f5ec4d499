package main

import (
	"io"
	"testing"

	"mirza/internal/cpu"
	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/replay"
	"mirza/internal/trace"
	"mirza/internal/track"
)

// The traced run is only trustworthy if its wrappers are transparent: a
// wrapper that hides FootprintBytes changes how cpu.NewSystem and
// replay.NewRunner prefault, so the simulated page mapping changes, and one
// without Unwrap hides the tracker statistics from track.Source.
//
// Aggregate statistics barely see the page mapping at smoke scale (a
// permutation of superblocks keeps every bank and row conflict), so these
// tests also hash the activation stream itself, every (sub, bank, row,
// time), through the simulators' public observers.

// footprintWorkload has a per-core footprint (2 GiB) spanning several vmap
// superblocks, so the order in which they are first touched, and with it
// the page mapping, depends on the prefault.
const footprintWorkload = "cc"

// actHash is an FNV-1a hash of every activation a simulation performs.
type actHash uint64

func newActHash() *actHash { h := actHash(14695981039346656037); return &h }

func (h *actHash) act(sub, bank, row int, now dram.Time) {
	for _, v := range [4]uint64{uint64(sub), uint64(bank), uint64(row), uint64(now)} {
		*h = (*h ^ actHash(v)) * 1099511628211
	}
}

// actObserver feeds a channel's ACT commands into an actHash.
type actObserver struct{ h *actHash }

func (o actObserver) ObserveSubmit(int, bool, dram.Time)          {}
func (o actObserver) ObservePRE(int, int, bool, dram.Time)        {}
func (o actObserver) ObserveRead(int, int, int, dram.Time)        {}
func (o actObserver) ObserveWrite(int, int, int, dram.Time)       {}
func (o actObserver) ObserveREF(int, int, dram.Time)              {}
func (o actObserver) ObserveRFM(int, int, dram.Time)              {}
func (o actObserver) ObserveAlert(int, mem.AlertPhase, dram.Time) {}
func (o actObserver) ObserveACT(sub, bank, row int, now dram.Time) {
	o.h.act(sub, bank, row, now)
}

// bareGen forwards Next and Name but drops FootprintBytes.
type bareGen struct{ trace.Generator }

// bareMit forwards the Mitigator methods but not Unwrap.
type bareMit struct{ track.Mitigator }

func TestWrapGenKeepsOptionalInterfaces(t *testing.T) {
	spec, err := trace.Lookup(footprintWorkload)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.NewSynthetic(spec, 1)
	fp, ok := wrapGen(g, &layers{}).(footprinter)
	if !ok || fp.FootprintBytes() != g.FootprintBytes() {
		t.Errorf("wrapGen dropped or changed FootprintBytes (ok=%v)", ok)
	}
	if _, ok := wrapGen(bareGen{g}, &layers{}).(footprinter); ok {
		t.Error("wrapGen added FootprintBytes to a generator without it")
	}
	m, err := buildPolicy("mirza", 1)
	if err != nil {
		t.Fatal(err)
	}
	if track.Source(wrapFactory(m.Factory(), &layers{})(0, track.NopSink{})) == nil {
		t.Error("a wrapped mitigator hides its StatsSource")
	}
}

// replayActs runs a smoke-scale mirza replay of footprintWorkload with wrap
// applied to its generators and mitigators, returning the statistics digest
// and the activation-stream hash.
func replayActs(t *testing.T, wrap func([]trace.Generator, []track.Mitigator)) (string, actHash) {
	t.Helper()
	spec, err := trace.Lookup(footprintWorkload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildPolicy("mirza", 1)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := trace.PerCore(spec, simCores, 1)
	if err != nil {
		t.Fatal(err)
	}
	mits := make([]track.Mitigator, dram.Default().SubChannels)
	for i := range mits {
		if mits[i], err = b.NewMitigator(i, track.NopSink{}); err != nil {
			t.Fatal(err)
		}
	}
	wrap(gens, mits)
	r, err := replay.NewRunner(replay.Config{IPS: spec.ImpliedIPS()}, gens, mits)
	if err != nil {
		t.Fatal(err)
	}
	h := newActHash()
	r.Run(200*dram.Microsecond, h.act)
	return digestOf(replayStats{Replay: r.Stats(), Track: trackStats(mits)}), *h
}

// timingActs runs footprintWorkload on cpu.NewSystem with wrap applied to
// its generators, returning the activation-stream hash.
func timingActs(t *testing.T, wrap func([]trace.Generator)) actHash {
	t.Helper()
	spec, err := trace.Lookup(footprintWorkload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildPolicy("mint-rfm", 1)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := trace.PerCore(spec, simCores, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrap(gens)
	sys, err := cpu.NewSystem(cpu.SystemConfig{Cores: simCores, Core: coreConfig(spec), Mem: memConfig(b, b.Factory())}, gens)
	if err != nil {
		t.Fatal(err)
	}
	h := newActHash()
	sys.Channel.InstallObserver(actObserver{h})
	sys.Run(30 * dram.Microsecond)
	return *h
}

func TestReplayWrappersTransparent(t *testing.T) {
	plainDigest, plainActs := replayActs(t, func([]trace.Generator, []track.Mitigator) {})
	l := &layers{}
	digest, acts := replayActs(t, func(gens []trace.Generator, mits []track.Mitigator) {
		for i := range gens {
			gens[i] = wrapGen(gens[i], l)
		}
		for i := range mits {
			mits[i] = &tracedMit{mits[i], l}
		}
	})
	if digest != plainDigest || acts != plainActs {
		t.Errorf("wrapped replay: digest %s acts %x, plain %s acts %x", digest, acts, plainDigest, plainActs)
	}
	if l.next.calls == 0 || l.activate.calls == 0 || l.ref.calls == 0 {
		t.Errorf("wrappers counted nothing: %+v", *l)
	}
}

func TestTimingWrappersTransparent(t *testing.T) {
	plain := timingActs(t, func([]trace.Generator) {})
	wrapped := timingActs(t, func(gens []trace.Generator) {
		for i := range gens {
			gens[i] = wrapGen(gens[i], &layers{})
		}
	})
	if wrapped != plain {
		t.Errorf("cpu.NewSystem with wrapped generators: acts %x, plain %x", wrapped, plain)
	}

	// The traced run builds its system from cpu.NewCore; it must match the
	// untraced cpu.NewSystem run policy by policy.
	w := timingWorkload{spec: "fotonik3d", smoke: simScale{warmup: 20 * dram.Microsecond, slice: 10 * dram.Microsecond, slices: 2}}
	spec, err := trace.Lookup(w.spec)
	if err != nil {
		t.Fatal(err)
	}
	c := &runCtx{options: options{seed: 1, smoke: true}, out: io.Discard, rep: newReport(io.Discard)}
	for _, p := range timingPolicies {
		untraced, err := w.untraced(c, spec, p, w.smoke, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := w.traced(c, spec, p, w.smoke, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digestOf(traced.stats), digestOf(untraced.stats); got != want {
			t.Errorf("%s: traced run digest %s, untraced %s", p, got, want)
		}
		if traced.l.next.calls == 0 || traced.l.activate.calls == 0 || traced.submits == 0 {
			t.Errorf("%s: wrappers counted nothing: %+v, %d submits", p, traced.l, traced.submits)
		}
	}
}

// The negative cases prove the transparency tests can fail: each broken
// wrapper changes what they compare.
func TestBrokenWrappersChangeDigest(t *testing.T) {
	plainDigest, plainActs := replayActs(t, func([]trace.Generator, []track.Mitigator) {})
	if _, acts := replayActs(t, func(gens []trace.Generator, _ []track.Mitigator) {
		for i := range gens {
			gens[i] = bareGen{gens[i]}
		}
	}); acts == plainActs {
		t.Error("replay: a generator wrapper without FootprintBytes left the activation stream unchanged")
	}
	if digest, _ := replayActs(t, func(_ []trace.Generator, mits []track.Mitigator) {
		for i := range mits {
			mits[i] = bareMit{mits[i]}
		}
	}); digest == plainDigest {
		t.Error("replay: a mitigator wrapper without Unwrap left the digest unchanged")
	}
	if timingActs(t, func(gens []trace.Generator) {
		for i := range gens {
			gens[i] = bareGen{gens[i]}
		}
	}) == timingActs(t, func([]trace.Generator) {}) {
		t.Error("cpu.NewSystem: a generator wrapper without FootprintBytes left the activation stream unchanged")
	}
}
