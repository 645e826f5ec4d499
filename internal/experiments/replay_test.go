package experiments

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"strings"
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
		var cfgs []core.Config
		for _, trhd := range []int{500, 2000} {
			cfg, err := core.ForTRHD(trhd)
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, cfg)
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

// TestDerivedTablesReadTheirSources: on one Suite, an experiment whose
// numbers are another's runs no job once its source ran, and each of its
// numbers is the source's cell.
func TestDerivedTablesReadTheirSources(t *testing.T) {
	if testing.Short() {
		t.Skip("runs timing simulations and replays")
	}
	s := NewSuite(quickOpts(), SuiteConfig{NoRetry: true})
	tables := map[string]*Table{}
	for _, res := range s.RunAll(context.Background(),
		[]string{"fig3", "fig11a", "table13", "table4", "fig6", "table8", "fig1c"}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		derived := res.ID == "table13" || res.ID == "fig6" || res.ID == "fig1c"
		if derived != (res.Jobs == 0) {
			t.Errorf("%s ran %d jobs", res.ID, res.Jobs)
		}
		tables[res.ID] = res.Table
	}
	cell := func(id, row, col string) string {
		t.Helper()
		c, err := tables[id].Cell(row, col)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	same := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %q, source cell %q", what, got, want)
		}
	}
	t13 := tables["table13"].Rows
	for i, c := range []struct{ trhd, mirza string }{{"500", "MIRZA-500"}, {"1000", "MIRZA-1K"}, {"2000", "MIRZA-2K"}} {
		same("table13 PRAC "+c.trhd, t13[3*i][3], cell("fig3", c.trhd, "PRAC slowdown"))
		same("table13 MINT "+c.trhd, t13[3*i+1][3], cell("fig3", c.trhd, "MINT slowdown"))
		same("table13 MIRZA "+c.trhd, t13[3*i+2][3], cell("fig11a", "Average", c.mirza))
	}
	for _, row := range []string{"xz", "Average"} {
		same("fig6 "+row, cell("fig6", row, "ACTs/subarray/tREFW"), cell("table4", row, "ACT/SA mean"))
	}
	same("fig1c", cell("fig1c", "Mitigations vs MINT", "Value"), cell("table8", "1000", "Difference"))
}

// mirzaReplayACTs returns the layer=replay track_acts_total counters of
// MIRZA sets, by policy and sub-channel.
func mirzaReplayACTs(reg *telemetry.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "track_acts_total" && c.Labels["layer"] == "replay" && strings.HasPrefix(c.Labels["policy"], "MIRZA") {
			out[c.Labels["policy"]+"/"+c.Labels["sub"]] = c.Value
		}
	}
	return out
}

// TestMirzaPassIsShared: on one Suite, Table 8, Fig 11b and Fig 13 read one
// shared pass per workload, whichever of Table 8 and Fig 11b runs first.
// Each renders what it renders on a fresh Runner, and the Suite's fault log
// is the fresh Runners' logs merged in experiment order. The PRAC set rides
// in the shared pass only if Fig 11b runs first. After the first, the
// others replay nothing but Fig 11b's PRAC set when Table 8 ran the pass
// without it, and they flush no MIRZA replay telemetry of their own.
func TestMirzaPassIsShared(t *testing.T) {
	testSharedPass(t, []string{"xz", "bc"}, 0, 1, 8)
}

// TestMirzaPassIsSharedSmall is TestMirzaPassIsShared at -j 8 on two light
// workloads of one core each, small enough to run under the race detector;
// the two workloads' jobs run side by side on the shared Runner.
func TestMirzaPassIsSharedSmall(t *testing.T) {
	testSharedPass(t, []string{"cam4", "xalancbmk"}, 1, 8)
}

// testSharedPass runs TestMirzaPassIsShared's checks on workloads with
// Options.Cores cores, at each parallelism.
func testSharedPass(t *testing.T, workloads []string, cores int, parallelism ...int) {
	if testing.Short() {
		t.Skip("replays refresh windows")
	}
	plan, err := fault.Parse("seed=7,alertdrop=0.3,bitflip=2e-6,alertdelay=16")
	if err != nil {
		t.Fatal(err)
	}
	opts := goldenOptions(workloads, plan)
	opts.Cores = cores
	opts.Parallelism = 8
	exps := map[string]Experiment{}
	fresh := map[string]string{}
	freshLogs := map[string]*fault.Log{}
	for _, id := range []string{"table8", "fig11b", "fig13"} {
		exp, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(opts)
		tab, err := exp.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		exps[id], fresh[id], freshLogs[id] = exp, tab.Render(), r.FaultLog()
		if freshLogs[id].Count(fault.BitFlip) == 0 || freshLogs[id].Count(fault.AlertDrop) == 0 {
			t.Fatalf("the plan injected too little into %s to compare: %s", id, freshLogs[id].Summary())
		}
	}
	for _, order := range [][]string{{"table8", "fig11b", "fig13"}, {"fig11b", "table8", "fig13"}} {
		for _, j := range parallelism {
			t.Run(fmt.Sprintf("%s-first/j%d", order[0], j), func(t *testing.T) {
				o := opts
				o.Parallelism = j
				o.Telemetry = telemetry.New()
				s := NewSuite(o, SuiteConfig{NoRetry: true})
				freshLog := fault.NewLog()
				var afterFirst map[string]int64
				for i, id := range order {
					r := s.Runner()
					// Every replay pass reads its workload's baseline for
					// the replay clock, so with the baselines forgotten a
					// replay would compute them again.
					r.mu.Lock()
					clear(r.baselines)
					calibrations := maps.Clone(r.calibrations)
					r.mu.Unlock()
					res := s.Run(context.Background(), exps[id])
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					if got := res.Table.Render(); got != fresh[id] {
						t.Errorf("%s on a shared Suite:\n%s\nfresh Runner:\n%s", id, got, fresh[id])
					}
					freshLog.Merge(freshLogs[id])
					if i == 0 {
						afterFirst = mirzaReplayACTs(o.Telemetry)
						r.mu.Lock()
						for _, w := range workloads {
							switch f := r.mirza[w]; {
							case f == nil:
								t.Errorf("%s left no shared pass of %s", id, w)
							case (f.v.prac != nil) != (id == "fig11b"):
								t.Errorf("%s's shared pass of %s carries PRAC: %v", id, w, f.v.prac != nil)
							}
						}
						r.mu.Unlock()
						continue
					}
					r.mu.Lock()
					replayed := !maps.Equal(r.calibrations, calibrations)
					r.mu.Unlock()
					if want := id == "fig11b" && order[0] == "table8"; replayed != want {
						t.Errorf("%s after %s replayed: %v, want %v", id, order[0], replayed, want)
					}
				}
				log := s.Runner().FaultLog()
				if log.Summary() != freshLog.Summary() || !reflect.DeepEqual(log.Events(), freshLog.Events()) {
					t.Errorf("Suite fault log %s, fresh logs merged %s", log.Summary(), freshLog.Summary())
				}
				if len(afterFirst) == 0 {
					t.Fatalf("%s flushed no MIRZA replay telemetry", order[0])
				}
				if got := mirzaReplayACTs(o.Telemetry); !reflect.DeepEqual(got, afterFirst) {
					t.Errorf("MIRZA replay ACTs %v after all three, %v after %s", got, afterFirst, order[0])
				}
			})
		}
	}
}

func TestTableCell(t *testing.T) {
	tab := &Table{ID: "t", Columns: []string{"k", "v"}, Rows: [][]string{{"a", "1"}, {"b", "2"}, {"b", "3"}}}
	if c, err := tab.Cell("b", "v"); c != "2" || err != nil {
		t.Errorf(`Cell("b", "v") = %q, %v; want the first b row's "2"`, c, err)
	}
	if _, err := tab.Cell("c", "v"); err == nil || !strings.Contains(err.Error(), `row "c"`) {
		t.Errorf(`Cell("c", "v") error %v does not name the missing row`, err)
	}
	if _, err := tab.Cell("a", "w"); err == nil || !strings.Contains(err.Error(), `column "w"`) {
		t.Errorf(`Cell("a", "w") error %v does not name the missing column`, err)
	}
}
