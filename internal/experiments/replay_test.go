package experiments

import (
	"reflect"
	"testing"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/fault"
	"mirza/internal/replay"
	"mirza/internal/telemetry"
	"mirza/internal/track"
)

// setOutcome is everything one tracker set carries out of a warm-up pass
// and a measured pass.
type setOutcome struct {
	warm, measured []replay.Stats
	trackers       []track.Stats
	mirza          []core.MirzaStats
	warmFaults     []fault.Event
	measuredFaults []fault.Event
	summary        string
}

// replaySetPasses runs a warm-up pass and a measured pass of xz over sets
// on a fresh Exec, returning each set's outcome, the pass results and the
// Exec's log.
func replaySetPasses(t *testing.T, r *Runner, sets [][]track.Mitigator) ([]setOutcome, [2][]replayResult, *fault.Log) {
	t.Helper()
	x := r.newExec()
	var res [2][]replayResult
	for i, kind := range []passKind{warmPass, measurePass} {
		var err error
		if res[i], err = x.replay("xz", replayPass{kind: kind, sets: sets}); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]setOutcome, len(sets))
	for k, set := range sets {
		warm, meas := res[0][k].faults, res[1][k].faults
		o := &out[k]
		o.warm, o.measured = res[1][k].warm, res[1][k].measured
		o.warmFaults, o.measuredFaults = warm.Events(), meas.Events()
		o.summary = warm.Summary() + " / " + meas.Summary()
		for _, m := range set {
			o.trackers = append(o.trackers, track.Source(m).TrackStats())
			if mz, ok := m.(*core.Mirza); ok {
				o.mirza = append(o.mirza, mz.Stats)
			}
		}
	}
	return out, res, x.log
}

// TestReplaySetsMatchSeparatePasses: one pass over K tracker sets gives
// each set exactly what a pass of its own gives it: replay stats with its
// own ALERTs, tracker stats and injected faults. The job's log holds the
// sets' faults in set order, warm-up pass first.
func TestReplaySetsMatchSeparatePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("replays twelve refresh windows")
	}
	opts := quickOpts()
	plan, err := fault.Parse("seed=7,alertdrop=0.3,bitflip=2e-6,alertdelay=16")
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = plan
	r := NewRunner(opts)
	names := []string{"MIRZA-500", "MIRZA-2K", "PRAC"}
	// newSets builds fresh MIRZA-500, MIRZA-2K and PRAC sets.
	newSets := func() [][]track.Mitigator {
		cfgs, err := mirzaConfigs([]int{500, 2000})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := mirzaMits(cfgs, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.newExec().buildPolicy("prac", 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		prac := make([]track.Mitigator, len(ms[0]))
		for i := range prac {
			prac[i] = b.Factory()(i, track.NopSink{})
		}
		return append(asSets(ms), prac)
	}

	joint, res, log := replaySetPasses(t, r, newSets())
	want := fault.NewLog()
	for _, pass := range res {
		for _, s := range pass {
			want.Merge(s.faults)
		}
	}
	if !reflect.DeepEqual(log.Events(), want.Events()) || log.Summary() != want.Summary() {
		t.Errorf("job log does not hold the sets' faults in set order\ngot:  %s\nwant: %s", log.Summary(), want.Summary())
	}
	for k, set := range newSets() {
		sep, _, _ := replaySetPasses(t, r, [][]track.Mitigator{set})
		if j, s := joint[k], sep[0]; !reflect.DeepEqual(j, s) {
			t.Errorf("%s: a %d-set pass diverged from its own pass\njoint:    %+v %+v faults %s\nseparate: %+v %+v faults %s",
				names[k], len(joint), j.measured, j.trackers, j.summary, s.measured, s.trackers, s.summary)
		}
	}

	// The comparison means something only if the plan reached every
	// set: each logs bit flips, and the MIRZA sets raise ALERTs that are
	// dropped and delayed.
	for k, o := range joint {
		var flips, drops, delays int
		for _, e := range append(o.warmFaults, o.measuredFaults...) {
			switch e.Kind {
			case fault.BitFlip:
				flips++
			case fault.AlertDrop:
				drops++
			case fault.AlertDelay:
				delays++
			}
		}
		var alerts int64
		for _, s := range o.measured {
			alerts += s.Alerts
		}
		if flips == 0 {
			t.Errorf("%s: no bit flips logged (%s)", names[k], o.summary)
		}
		if o.mirza != nil && (drops == 0 || delays == 0 || alerts == 0) {
			t.Errorf("%s: %d ALERTs, %d drops, %d delays logged; want all non-zero", names[k], alerts, drops, delays)
		}
	}
}

// TestTable6HonoursFaultPlan: Table 6's trackers run under the fault plan
// and flush their telemetry like every other replay's. Under a plan the
// pass polls and services ALERTs, so the plan's ALERT faults fire too.
func TestTable6HonoursFaultPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two refresh windows")
	}
	opts := quickOpts()
	plan, err := fault.Parse("seed=7,bitflip=2e-6,alertdrop=0.3")
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = plan
	opts.Telemetry = telemetry.New()
	r := NewRunner(opts)
	if _, err := r.Table6(); err != nil {
		t.Fatal(err)
	}
	if n := r.FaultLog().Count(fault.BitFlip); n == 0 {
		t.Errorf("table6 logged no bit flips under %v", plan)
	}
	if n := r.FaultLog().Count(fault.AlertDrop); n == 0 {
		t.Errorf("table6 logged no ALERT drops under %v", plan)
	}
	var acts int64
	for _, c := range opts.Telemetry.Snapshot().Counters {
		if c.Name == "track_acts_total" && c.Labels["layer"] == "replay" {
			acts += c.Value
		}
	}
	if acts == 0 {
		t.Error("table6 flushed no replay tracker telemetry")
	}
}

// callMit always wants an ALERT and counts the calls it gets.
type callMit struct {
	acts, refs, polls, services int
}

func (m *callMit) Name() string                            { return "calls" }
func (m *callMit) OnRFM(bank int, now dram.Time)           {}
func (m *callMit) OnActivate(bank, row int, now dram.Time) { m.acts++ }
func (m *callMit) OnREF(refIndex int, now dram.Time)       { m.refs++ }
func (m *callMit) WantsALERT() bool                        { m.polls++; return true }
func (m *callMit) ServiceALERT(now dram.Time)              { m.services++ }

// TestFanOutCountOnly: a count-only fan-out hands its members every ACT and
// REF but never polls or services an ALERT; the default one does both.
func TestFanOutCountOnly(t *testing.T) {
	for _, countOnly := range []bool{true, false} {
		ms := []*callMit{{}, {}}
		f := &fanOut{members: []track.Mitigator{ms[0], ms[1]}, alerts: make([]int64, 2), countOnly: countOnly}
		for i := 0; i < 3; i++ {
			f.OnActivate(1, 2, dram.Time(i))
		}
		f.OnREF(0, 5)
		want := callMit{acts: 3, refs: 1, polls: 3, services: 3}
		wantAlerts := []int64{3, 3}
		if countOnly {
			want.polls, want.services, wantAlerts = 0, 0, []int64{0, 0}
		}
		for k, m := range ms {
			if *m != want {
				t.Errorf("countOnly=%v member %d: %+v, want %+v", countOnly, k, *m, want)
			}
		}
		if !reflect.DeepEqual(f.alerts, wantAlerts) {
			t.Errorf("countOnly=%v: alerts %v, want %v", countOnly, f.alerts, wantAlerts)
		}
	}
}

// TestActsPerSubarrayShared: Table 4 and Fig 6 read one unprotected pass
// per workload from the Runner.
func TestActsPerSubarrayShared(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two refresh windows")
	}
	r := NewRunner(quickOpts())
	if _, err := r.Table4(); err != nil {
		t.Fatal(err)
	}
	e := r.actsPerSA["xz"]
	if e == nil || len(r.actsPerSA) != 1 {
		t.Fatalf("after table4: %d memo entries, xz's %v", len(r.actsPerSA), e)
	}
	tab, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if r.actsPerSA["xz"] != e || len(r.actsPerSA) != 1 {
		t.Fatal("fig6 replaced or added a memo entry")
	}
	if got, want := tab.Rows[0][1], f1(e.v.mean); got != want {
		t.Errorf("fig6 xz reads %s, the shared pass %s", got, want)
	}
}
