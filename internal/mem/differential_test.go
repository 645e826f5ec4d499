package mem

import (
	"fmt"
	"slices"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/fault"
	"mirza/internal/sim"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// Differential test: the redesigned struct-of-arrays fast-forward command
// path must issue exactly the command stream — same commands, same banks,
// same rows, same picosecond timestamps — as the preserved legacy
// implementation (legacy_ref_test.go), for every protocol feature at
// once: row hits/conflicts, tFAW storms, soft close-page, REF, proactive
// RFM, ALERT-Back-Off, writes, RowPress weighting, and a geometry wider
// than one bitset word.

// diffCmd is one observed command, comparable with ==.
type diffCmd struct {
	kind   string
	sub    int
	bank   int
	row    int
	forced bool
	write  bool
	phase  AlertPhase
	at     dram.Time
}

// diffObs records every command into a flat stream.
type diffObs struct{ cmds []diffCmd }

func (o *diffObs) ObserveSubmit(sub int, write bool, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "submit", sub: sub, write: write, at: now})
}
func (o *diffObs) ObserveACT(sub, bank, row int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "act", sub: sub, bank: bank, row: row, at: now})
}
func (o *diffObs) ObservePRE(sub, bank int, forced bool, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "pre", sub: sub, bank: bank, forced: forced, at: now})
}
func (o *diffObs) ObserveRead(sub, bank, row int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "read", sub: sub, bank: bank, row: row, at: now})
}
func (o *diffObs) ObserveWrite(sub, bank, row int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "write", sub: sub, bank: bank, row: row, at: now})
}
func (o *diffObs) ObserveREF(sub, refIndex int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "ref", sub: sub, bank: refIndex, at: now})
}
func (o *diffObs) ObserveRFM(sub, bank int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "rfm", sub: sub, bank: bank, at: now})
}
func (o *diffObs) ObserveAlert(sub int, phase AlertPhase, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "alert", sub: sub, phase: phase, at: now})
}

// submitter is a mem-facing request source: both channel flavours satisfy
// it.
type submitter interface {
	Submit(r *Request)
	Geometry() dram.Geometry
	PendingRequests() int
	InstallObserver(obs CommandObserver)
	Stats() Stats
}

// diffFeeder replays a fixed pseudo-random request schedule into a
// channel, one typed event rescheduled per batch.
type diffFeeder struct {
	k     *sim.Kernel
	ch    submitter
	rng   *stats.RNG
	ev    sim.Event
	left  int
	gap   dram.Time
	hot   int // rows hammered to trip trackers
	dones []dram.Time

	// sub, when non-negative, pins every request to that sub-channel.
	sub int
	// chain is the budget of follow-up reads that posted writes' Done
	// callbacks submit synchronously to their own sub-channel, from inside
	// the scheduler's issue; deep counts those submitted while the channel
	// held more than deepAt requests.
	chain, deep, deepAt int
}

func newDiffFeeder(k *sim.Kernel, ch submitter, seed uint64, n int, gap dram.Time) *diffFeeder {
	f := &diffFeeder{k: k, ch: ch, rng: stats.NewRNG(seed), left: n, gap: gap, hot: 4, sub: -1}
	f.ev.Bind(f)
	k.ScheduleEvent(&f.ev, 0)
	return f
}

func (f *diffFeeder) Fire(now dram.Time) {
	g := f.ch.Geometry()
	// A small batch per firing keeps several requests in flight, creating
	// hits, conflicts, and cross-bank tFAW pressure.
	batch := 1 + f.rng.Intn(4)
	for i := 0; i < batch && f.left > 0; i++ {
		f.left--
		var addr dram.Address
		if addr.SubChannel = f.sub; f.sub < 0 {
			addr.SubChannel = f.rng.Intn(g.SubChannels)
		}
		addr.Bank = f.rng.Intn(g.BanksPerSubChannel)
		switch f.rng.Intn(4) {
		case 0: // hammer a hot row (trips PRAC / BAT counters)
			addr.Row = f.rng.Intn(f.hot)
		case 1: // revisit a warm set (row hits)
			addr.Row = 64 + f.rng.Intn(8)
		default: // scatter (conflicts, close-page)
			addr.Row = f.rng.Intn(g.RowsPerBank)
		}
		f.submit(addr, f.rng.Intn(5) == 0)
	}
	if f.left > 0 {
		jitter := dram.Time(f.rng.Int63n(int64(f.gap)))
		f.k.ScheduleEvent(&f.ev, now+f.gap+jitter)
	}
}

// submit enqueues one request and records its completion time. A posted
// write with chain budget left submits a follow-up read from its Done —
// synchronously, while the scheduler is still inside the write's issue.
func (f *diffFeeder) submit(addr dram.Address, write bool) {
	g := f.ch.Geometry()
	idx := len(f.dones)
	f.dones = append(f.dones, 0)
	r := &Request{Addr: g.Compose(addr), Write: write}
	r.Done = func(at dram.Time) {
		f.dones[idx] = at
		if write && f.chain > 0 {
			f.chain--
			if f.ch.PendingRequests() > f.deepAt {
				f.deep++
			}
			next := addr
			next.Bank = (addr.Bank + 1) % g.BanksPerSubChannel
			f.submit(next, false)
		}
	}
	f.ch.Submit(r)
}

// diffRun drives one channel flavour and returns the observed command
// stream, final stats, and the channel itself for coverage checks.
func diffRun(cfg Config, build func(*sim.Kernel, Config) submitter, horizon dram.Time, drive func(*sim.Kernel, submitter)) ([]diffCmd, Stats, submitter) {
	k := &sim.Kernel{}
	ch := build(k, cfg)
	obs := &diffObs{}
	ch.InstallObserver(obs)
	drive(k, ch)
	k.RunUntil(horizon)
	return obs.cmds, ch.Stats(), ch
}

// requireSameStream runs drive against the new and the legacy channel
// (each with its own kernel and mitigators from cfg) and fails on any
// divergence in the command stream or the final stats. It returns the
// new channel's stream, stats and channel.
func requireSameStream(t *testing.T, cfg Config, horizon dram.Time, drive func(*sim.Kernel, submitter)) ([]diffCmd, Stats, *Channel) {
	t.Helper()
	gotCmds, gotStats, ch := diffRun(cfg, buildNew, horizon, drive)
	wantCmds, wantStats, _ := diffRun(cfg, buildLegacy, horizon, drive)
	if len(gotCmds) == 0 {
		t.Fatal("scenario produced no commands")
	}
	if gotStats != wantStats {
		t.Errorf("stats diverged:\n new: %+v\n old: %+v", gotStats, wantStats)
	}
	n := len(gotCmds)
	if len(wantCmds) != n {
		t.Errorf("command count: new %d, legacy %d", n, len(wantCmds))
		n = min(n, len(wantCmds))
	}
	mismatches := 0
	for i := 0; i < n; i++ {
		if gotCmds[i] != wantCmds[i] {
			t.Errorf("cmd %d diverged:\n new: %+v\n old: %+v", i, gotCmds[i], wantCmds[i])
			if mismatches++; mismatches > 5 {
				t.Fatal("too many divergences; stopping")
			}
		}
	}
	return gotCmds, gotStats, ch.(*Channel)
}

// feed returns a drive function that replays the seeded random schedule.
func feed(seed uint64, n int, gap dram.Time) func(*sim.Kernel, submitter) {
	return func(k *sim.Kernel, ch submitter) { newDiffFeeder(k, ch, seed, n, gap) }
}

func buildNew(k *sim.Kernel, cfg Config) submitter {
	ch, err := NewChannel(k, cfg)
	if err != nil {
		panic(err)
	}
	return ch
}

func buildLegacy(k *sim.Kernel, cfg Config) submitter {
	ch, err := NewLegacyChannel(k, cfg)
	if err != nil {
		panic(err)
	}
	return ch
}

func TestDifferentialCommandStream(t *testing.T) {
	geomWide := dram.Default()
	geomWide.BanksPerSubChannel = 128 // > 64: spans multiple bitset words
	pracFactory := func(sub int, sink track.Sink) track.Mitigator {
		return track.NewPRAC(track.PRACConfig{
			Geometry:       dram.Default(),
			AlertThreshold: 24, // low enough that the hot rows trip ALERT
		}, sink)
	}
	cases := []struct {
		name string
		cfg  Config
		n    int
		gap  dram.Time
	}{
		{
			name: "baseline-mixed",
			cfg:  Config{},
			n:    4000,
			gap:  20 * dram.Nanosecond,
		},
		{
			name: "rfm-rowpress",
			cfg:  Config{RFMBAT: 16, RowPressWeighting: true},
			n:    4000,
			gap:  15 * dram.Nanosecond,
		},
		{
			name: "prac-alert",
			cfg:  Config{NewMitigator: pracFactory, Timing: dram.PRAC(), RowPressWeighting: true},
			n:    5000,
			gap:  10 * dram.Nanosecond,
		},
		{
			name: "wide-geometry",
			cfg:  Config{Geometry: geomWide, RFMBAT: 12},
			n:    3000,
			gap:  12 * dram.Nanosecond,
		},
		{
			name: "idle-bursts", // long empty-queue spans exercise fast-forward
			cfg:  Config{RFMBAT: 24},
			n:    600,
			gap:  600 * dram.Nanosecond,
		},
	}
	const horizon = 300 * dram.Microsecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, gotStats, _ := requireSameStream(t, tc.cfg, horizon, feed(99, tc.n, tc.gap))
			// Sanity: the scenarios must actually exercise their features.
			assertCoverage(t, tc.name, gotStats)
		})
	}
}

func assertCoverage(t *testing.T, name string, st Stats) {
	t.Helper()
	checks := []struct {
		label string
		ok    bool
	}{
		{"reads", st.Reads > 0},
		{"writes", st.Writes > 0},
		{"acts", st.ACTs > 0},
		{"refs", st.REFs > 0},
	}
	switch name {
	case "rfm-rowpress", "wide-geometry":
		checks = append(checks, struct {
			label string
			ok    bool
		}{"rfms", st.RFMs > 0})
	case "prac-alert":
		checks = append(checks, struct {
			label string
			ok    bool
		}{"alerts", st.Alerts > 0})
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("scenario %s never exercised %s: %+v", name, c.label, st)
		}
	}
}

// TestDifferentialDrain checks completion-time equality request by request
// on a drain-to-empty run (every submitted request completes, so the Done
// streams line up index for index).
func TestDifferentialDrain(t *testing.T) {
	cfg := Config{RFMBAT: 20, RowPressWeighting: true}
	run := func(build func(*sim.Kernel, Config) submitter) []dram.Time {
		k := &sim.Kernel{}
		ch := build(k, cfg)
		f := newDiffFeeder(k, ch, 7, 2000, 25*dram.Nanosecond)
		k.RunUntil(2 * dram.Millisecond)
		return f.dones
	}
	got := run(buildNew)
	want := run(buildLegacy)
	if len(got) != len(want) {
		t.Fatalf("request count: new %d, legacy %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == 0 {
			t.Fatalf("request %d never completed on the new path", i)
		}
		if got[i] != want[i] {
			t.Fatalf("request %d completion: new %v, legacy %v", i, got[i], want[i])
		}
	}
}

// TestDifferentialPostedWriteResubmit: a posted write's Done runs inside
// the scheduler's column issue and submits a read to the same sub-channel
// while the queue is deeper than the window, so the scan continues over a
// window that both the dequeue and the synchronous submit have changed.
func TestDifferentialPostedWriteResubmit(t *testing.T) {
	cfg := Config{WindowDepth: 4}
	var feeders []*diffFeeder
	requireSameStream(t, cfg, 100*dram.Microsecond, func(k *sim.Kernel, ch submitter) {
		f := newDiffFeeder(k, ch, 11, 1500, 4*dram.Nanosecond)
		f.sub, f.chain, f.deepAt = 0, 300, cfg.WindowDepth
		feeders = append(feeders, f)
	})
	if f := feeders[0]; f.deep == 0 {
		t.Errorf("none of %d chained submits arrived while the queue was deeper than the window", 300-f.chain)
	}
}

// TestDifferentialBacklogSlideIn keeps the backlog deeper than a shallow
// window: bursts of 8 requests over 3 banks × 2 rows, about a quarter of
// them posted writes, arrive faster than sub-channel 0 drains them. Each
// column issue then slides the oldest overflow entry into the window, and
// with so few rows it is often a row hit, so the wake time must account
// for hits that entered the window during the scan that armed it.
func TestDifferentialBacklogSlideIn(t *testing.T) {
	for _, depth := range []int{2, 3, 4} {
		for seed := uint64(1); seed <= 40; seed++ {
			cfg := Config{WindowDepth: depth}
			deep := false
			_, st, _ := requireSameStream(t, cfg, 30*dram.Microsecond, func(k *sim.Kernel, ch submitter) {
				burstFeed(k, ch, seed, 40, 60*dram.Nanosecond, func() {
					deep = deep || ch.PendingRequests() > depth
				})
			})
			if t.Failed() {
				t.Fatalf("window %d, seed %d diverged", depth, seed)
			}
			if !deep || st.Writes == 0 || st.Reads+st.Writes != 40*8 {
				t.Fatalf("window %d, seed %d: backlog deeper than the window %v, stats %+v", depth, seed, deep, st)
			}
		}
	}
}

// burstFeed submits n bursts of 8 requests to sub-channel 0 over banks
// 0–2 and two rows, a quarter of them writes, one burst every gap plus
// up to gap of jitter. probe runs after each burst.
func burstFeed(k *sim.Kernel, ch submitter, seed uint64, n int, gap dram.Time, probe func()) {
	g := ch.Geometry()
	rng := stats.NewRNG(seed)
	ev := &sim.Event{}
	ev.Bind(sim.HandlerFunc(func(now dram.Time) {
		for i := 0; i < 8; i++ {
			a := dram.Address{Bank: rng.Intn(3), Row: 100 + rng.Intn(2), Col: rng.Intn(16)}
			ch.Submit(&Request{Addr: g.Compose(a), Write: rng.Intn(4) == 0, Done: func(dram.Time) {}})
		}
		probe()
		if n--; n > 0 {
			k.ScheduleEvent(ev, now+gap+dram.Time(rng.Int63n(int64(gap))))
		}
	}))
	k.ScheduleEvent(ev, 0)
}

// TestDifferentialFusedInstant scripts one picosecond at which a single
// scan issues a column, a conflict precharge and an activate. Bank 1
// opens at 0 and bank 0 at tRRD; at tRAS a hit on bank 0, a conflict on
// bank 1 (its precharge just came due) and a closed-bank read on bank 2
// arrive together.
func TestDifferentialFusedInstant(t *testing.T) {
	tm := dram.DDR5()
	at := tm.TRAS
	cmds, _, _ := requireSameStream(t, Config{}, 2*dram.Microsecond, func(k *sim.Kernel, ch submitter) {
		g := ch.Geometry()
		read := func(bank, row int) {
			ch.Submit(&Request{Addr: g.Compose(dram.Address{Bank: bank, Row: row})})
		}
		script := []struct {
			at   dram.Time
			reqs func()
		}{
			{0, func() { read(1, 10) }},
			{tm.TRRD, func() { read(0, 20) }},
			{at, func() { read(0, 20); read(1, 30); read(2, 40) }},
		}
		for _, s := range script {
			ev := &sim.Event{}
			ev.Bind(sim.HandlerFunc(func(dram.Time) { s.reqs() }))
			k.ScheduleEvent(ev, s.at)
		}
	})
	var got []string
	for _, c := range cmds {
		if c.at == at && c.kind != "submit" {
			got = append(got, fmt.Sprintf("%s/b%d", c.kind, c.bank))
		}
	}
	if want := []string{"read/b0", "pre/b1", "act/b2"}; !slices.Equal(got, want) {
		t.Errorf("commands at %v = %v, want %v", at, got, want)
	}
}

// actAlert is a stub tracker that asserts ALERT on every period-th
// activation it observes (RowPress equivalent ACTs included) until the
// ALERT is serviced.
type actAlert struct {
	*track.Nop
	period, acts int
	want         bool
}

func (a *actAlert) OnActivate(bank, row int, now dram.Time) {
	if a.acts++; a.acts%a.period == 0 {
		a.want = true
	}
}
func (a *actAlert) WantsALERT() bool       { return a.want }
func (a *actAlert) ServiceALERT(dram.Time) { a.want = false }
func newActAlert(period int) *actAlert     { return &actAlert{Nop: track.NewNop(), period: period} }

// TestDifferentialALERTOnActivate: WantsALERT turns true on an ACT, so the
// scan must start the ALERT right after the activate and rescan. Under
// fault.Wrap the first poll of each assertion draws from the fault RNG,
// so the poll count must match too: the injected fault logs compare
// equal.
func TestDifferentialALERTOnActivate(t *testing.T) {
	for _, drop := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("drop=%v", drop), func(t *testing.T) {
			var logs []*fault.Log
			plan := fault.Plan{Seed: 3, AlertDropRate: drop, DropACTs: 16}
			cfg := Config{NewMitigator: func(sub int, _ track.Sink) track.Mitigator {
				if sub == 0 {
					logs = append(logs, fault.NewLog())
				}
				return fault.Wrap(plan, newActAlert(37), uint64(sub), logs[len(logs)-1])
			}}
			cmds, st, _ := requireSameStream(t, cfg, 200*dram.Microsecond, feed(5, 4000, 10*dram.Nanosecond))
			if st.Alerts == 0 {
				t.Fatal("no ALERT fired")
			}
			fused := false
			for i := 1; i < len(cmds); i++ {
				prev, c := cmds[i-1], cmds[i]
				if c.kind == "alert" && c.phase == AlertPrologueStart && prev.kind == "act" && prev.at == c.at {
					fused = true
					break
				}
			}
			if !fused {
				t.Error("no ALERT started at the instant of the ACT that raised it")
			}
			if drop > 0 {
				if logs[0].Count(fault.AlertDrop) == 0 {
					t.Error("no ALERT was dropped")
				}
				if got, want := logs[0].Events(), logs[1].Events(); !slices.Equal(got, want) {
					t.Errorf("fault logs diverged: new %d events, legacy %d", len(got), len(want))
				}
			}
		})
	}
}

// TestDifferentialRowPressFallback: under RowPressWeighting a demand
// precharge reports equivalent ACTs to the tracker, so the scan stops
// after it and rescans. With an inert tracker the command stream is the
// same with and without the weighting, and the extra traversals prove
// the fallback ran; with an ALERT-raising tracker the equivalent ACTs
// start ALERTs of their own.
func TestDifferentialRowPressFallback(t *testing.T) {
	drive := feed(21, 3000, 15*dram.Nanosecond)
	const horizon = 150 * dram.Microsecond
	offCmds, _, off := requireSameStream(t, Config{}, horizon, drive)
	onCmds, _, on := requireSameStream(t, Config{RowPressWeighting: true}, horizon, drive)
	if !slices.Equal(onCmds, offCmds) {
		t.Error("RowPress weighting changed the command stream of an inert tracker")
	}
	offScans, _ := off.ScanTotals()
	onScans, _ := on.ScanTotals()
	if onScans <= offScans {
		t.Errorf("traversals with RowPress %d, without %d: the precharge fallback never rescanned", onScans, offScans)
	}

	var trackers []*actAlert
	cfg := Config{RowPressWeighting: true, NewMitigator: func(int, track.Sink) track.Mitigator {
		a := newActAlert(29)
		trackers = append(trackers, a)
		return a
	}}
	_, st, ch := requireSameStream(t, cfg, horizon, drive)
	acts := 0
	for _, a := range trackers[:ch.cfg.Geometry.SubChannels] {
		acts += a.acts
	}
	if st.Alerts == 0 || int64(acts) <= st.ACTs {
		t.Errorf("alerts %d, tracker saw %d ACTs for %d issued: want ALERTs and equivalent ACTs", st.Alerts, acts, st.ACTs)
	}
}
