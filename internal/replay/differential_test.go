package replay

import (
	"fmt"
	"runtime"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/tenant"
	"mirza/internal/trace"
	"mirza/internal/track"
	"mirza/internal/vmap"
)

// refRunner is the differential oracle for Runner: the replay loop as it
// was before generation moved onto a producer goroutine. It calls each
// generator inline, one op at a time, on the caller's goroutine. It exists
// only in tests, the way mem.LegacySubChannel does for the command path.
type refRunner struct {
	cfg    Config
	dec    dram.Decoder
	gens   []trace.Generator
	mapper *vmap.Mapper
	mits   []track.Mitigator
	asids  []int

	coreInstr []float64
	coreAt    []dram.Time
	coreOp    []trace.Op
	perCore   float64

	banks  [][]bankRow
	refDue []dram.Time
	refIdx []int

	now   dram.Time
	stats []Stats
}

// newRefRunner mirrors NewRunner for an already valid cfg, gens and mits.
func newRefRunner(cfg Config, gens []trace.Generator, mits []track.Mitigator) *refRunner {
	if err := cfg.setDefaults(); err != nil {
		panic(err)
	}
	if mits == nil {
		mits = make([]track.Mitigator, cfg.Geometry.SubChannels)
	}
	asids := cfg.ASIDs
	if asids == nil {
		asids = make([]int, len(gens))
		for i := range asids {
			asids[i] = i
		}
	}
	r := &refRunner{
		cfg:       cfg,
		dec:       cfg.Geometry.Decoder(dram.MOP4Mapping),
		gens:      gens,
		mapper:    vmap.NewMapper(cfg.Geometry.CapacityBytes()),
		mits:      mits,
		asids:     asids,
		coreInstr: make([]float64, len(gens)),
		coreAt:    make([]dram.Time, len(gens)),
		coreOp:    make([]trace.Op, len(gens)),
		perCore:   cfg.IPS / float64(len(gens)),
		refDue:    make([]dram.Time, cfg.Geometry.SubChannels),
		refIdx:    make([]int, cfg.Geometry.SubChannels),
		stats:     make([]Stats, cfg.Geometry.SubChannels),
	}
	r.banks = make([][]bankRow, cfg.Geometry.SubChannels)
	for sub := range r.banks {
		r.banks[sub] = make([]bankRow, cfg.Geometry.BanksPerSubChannel)
		for b := range r.banks[sub] {
			r.banks[sub][b].row = -1
		}
		r.refDue[sub] = cfg.Timing.TREFI
	}
	for c := range gens {
		if fp, ok := gens[c].(interface{ FootprintBytes() uint64 }); ok {
			for off := uint64(0); off < fp.FootprintBytes(); off += vmap.SuperBytes {
				r.mapper.Translate(asids[c], off)
			}
		}
		r.gens[c].Next(&r.coreOp[c])
		r.coreInstr[c] = float64(r.coreOp[c].Gap + 1)
		r.coreAt[c] = r.coreTime(c)
	}
	return r
}

func (r *refRunner) coreTime(c int) dram.Time {
	return dram.Time(r.coreInstr[c] / r.perCore * 1e12)
}

func (r *refRunner) Stats() []Stats { return append([]Stats(nil), r.stats...) }

func (r *refRunner) Run(until dram.Time, obs Observer) {
	for {
		c := 0
		tc := r.coreAt[0]
		for i := 1; i < len(r.coreAt); i++ {
			if ti := r.coreAt[i]; ti < tc {
				c, tc = i, ti
			}
		}
		if tc >= until {
			r.fireREFs(until)
			r.now = until
			return
		}
		r.fireREFs(tc)
		r.now = tc

		op := r.coreOp[c]
		phys := r.mapper.Translate(r.asids[c], op.Line*trace.LineBytes)
		addr := r.dec.Decompose(phys)
		st := &r.stats[addr.SubChannel]
		st.Accesses++

		bk := &r.banks[addr.SubChannel][addr.Bank]
		isACT := bk.row != addr.Row || tc-bk.lastAt > r.cfg.RowOpenWindow
		bk.row, bk.lastAt = addr.Row, tc
		if isACT {
			st.ACTs++
			if mit := r.mits[addr.SubChannel]; mit != nil {
				mit.OnActivate(addr.Bank, addr.Row, tc)
				if mit.WantsALERT() {
					st.Alerts++
					mit.ServiceALERT(tc)
				}
			}
			if obs != nil {
				obs(addr.SubChannel, addr.Bank, addr.Row, tc)
			}
		}

		r.gens[c].Next(&r.coreOp[c])
		r.coreInstr[c] += float64(r.coreOp[c].Gap + 1)
		r.coreAt[c] = r.coreTime(c)
	}
}

func (r *refRunner) fireREFs(upTo dram.Time) {
	for sub := range r.refDue {
		for r.refDue[sub] <= upTo {
			r.stats[sub].REFs++
			if mit := r.mits[sub]; mit != nil {
				mit.OnREF(r.refIdx[sub], r.refDue[sub])
			}
			r.refIdx[sub]++
			r.refDue[sub] += r.cfg.Timing.TREFI
		}
	}
}

// act is one observed activation.
type act struct {
	sub, bank, row int
	at             dram.Time
}

// diffCase builds one side of a differential run: fresh generators and
// mitigators, identical on every call.
type diffCase struct {
	name   string
	ips    float64
	asids  []int
	policy string // "" runs unprotected
	gens   func(t *testing.T) []trace.Generator
	slice  dram.Time // length of one Run window
	slices int
}

func (dc diffCase) mits(t *testing.T) []track.Mitigator {
	g := dram.Default()
	switch dc.policy {
	case "":
		return nil
	case "record":
		calls := new([]mitCall)
		mits := make([]track.Mitigator, g.SubChannels)
		for sub := range mits {
			mits[sub] = &recMit{sub: sub, calls: calls}
		}
		return mits
	}
	b, err := track.Build(dc.policy, nil, track.Config{Geometry: g, Mapping: dram.StridedR2SA, TRHD: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mits := make([]track.Mitigator, g.SubChannels)
	for sub := range mits {
		if mits[sub], err = b.NewMitigator(sub, track.NopSink{}); err != nil {
			t.Fatal(err)
		}
	}
	return mits
}

func diffCases(t *testing.T) []diffCase {
	synthetic := func(name string) func(*testing.T) []trace.Generator {
		return func(t *testing.T) []trace.Generator { return gens(t, name, 8) }
	}
	tenants := func(t *testing.T) []trace.Generator {
		s, err := tenant.Parse("xz:2+attack=double:3")
		if err != nil {
			t.Fatal(err)
		}
		gs, _, err := s.Generators(9)
		if err != nil {
			t.Fatal(err)
		}
		return gs
	}
	opsGens := func(t *testing.T) []trace.Generator {
		// Short loops of different lengths: each wraps many times, and
		// the loops drift against each other and against the chunking.
		var gs []trace.Generator
		for c, n := range []int{7, 300, 513} {
			ops := make([]trace.Op, n)
			for i := range ops {
				ops[i] = trace.Op{Gap: int64((i*37 + c*11) % 90), Line: uint64(i*4099+c*65537) % (1 << 22)}
			}
			g, err := trace.NewOps(fmt.Sprintf("ops%d", c), ops)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
		return gs
	}
	// tiedGens gives every core the same gaps, so all cores sit on equal
	// clocks at every op, and lines that crowd a few banks, so the order
	// the merge breaks each tie in decides which accesses activate.
	tiedGens := func(cores int) func(*testing.T) []trace.Generator {
		return func(t *testing.T) []trace.Generator {
			var gs []trace.Generator
			for c := 0; c < cores; c++ {
				ops := make([]trace.Op, 64+c)
				for i := range ops {
					ops[i] = trace.Op{Gap: int64(i%5) * 7, Line: uint64(i*3+c) % 97 * 4099}
				}
				g, err := trace.NewOps(fmt.Sprintf("tied%d", c), ops)
				if err != nil {
					t.Fatal(err)
				}
				gs = append(gs, g)
			}
			return gs
		}
	}
	// spillGens claim a footprint of 1.5 superblocks but touch lines over
	// six, so part of every stream lands past the prefaulted superblocks
	// and first touches allocate them in merge order across cores.
	spillGens := func(t *testing.T) []trace.Generator {
		const superLines = vmap.SuperBytes / trace.LineBytes
		var gs []trace.Generator
		for c := 0; c < 4; c++ {
			ops := make([]trace.Op, 200+c*37)
			for i := range ops {
				ops[i] = trace.Op{Gap: int64((i*13 + c*5) % 40), Line: uint64((i*7+c)%6)*superLines + uint64(i*4099+c*811)%superLines}
			}
			g, err := trace.NewOps(fmt.Sprintf("spill%d", c), ops)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, footprintGen{g, vmap.SuperBytes * 3 / 2})
		}
		return gs
	}
	// exactGens run 39 instructions per op at 1e9 per core, so every op
	// issues at a multiple of 39 ns, and one op of each core lands exactly
	// on every REF (tREFI is 3900 ns).
	exactGens := func(t *testing.T) []trace.Generator {
		var gs []trace.Generator
		for c := 0; c < 2; c++ {
			ops := make([]trace.Op, 50)
			for i := range ops {
				ops[i] = trace.Op{Gap: 38, Line: uint64(i*8191+c*131) % (1 << 20)}
			}
			g, err := trace.NewOps(fmt.Sprintf("exact%d", c), ops)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
		return gs
	}
	tREFI := dram.DDR5().TREFI
	if tREFI != 3900*dram.Nanosecond {
		t.Fatalf("tREFI %v: exactGens need 3900 ns", tREFI)
	}
	return []diffCase{
		{name: "fotonik3d", ips: 8e9, policy: "mirza", gens: synthetic("fotonik3d"), slice: 23 * dram.Microsecond, slices: 30},
		{name: "mix_1", ips: 8e9, policy: "mint-rfm", gens: synthetic("mix_1"), slice: 31 * dram.Microsecond, slices: 25},
		{name: "ops", ips: 3e9, gens: opsGens, slice: 11 * dram.Microsecond, slices: 60},
		{name: "tenants", ips: 5e9, asids: []int{0, 0, 1, 1, 1}, policy: "mirza", gens: tenants, slice: 3 * dram.Microsecond, slices: 40},
		{name: "tied3", ips: 3e9, policy: "mirza", gens: tiedGens(3), slice: 7 * dram.Microsecond, slices: 30},
		{name: "tied5", ips: 5e9, gens: tiedGens(5), slice: 7 * dram.Microsecond, slices: 30},
		{name: "tied8", ips: 8e9, policy: "mint-rfm", gens: tiedGens(8), slice: 7 * dram.Microsecond, slices: 30},
		{name: "spill", ips: 4e9, asids: []int{0, 1, 1, 2}, gens: spillGens, slice: 5 * dram.Microsecond, slices: 40},
		{name: "refTies", ips: 2e9, policy: "record", gens: exactGens, slice: 17 * dram.Microsecond, slices: 20},
		// Every window ends exactly on a REF: Run must fire it, once.
		{name: "refEdges", ips: 8e9, policy: "mirza", gens: synthetic("xz"), slice: tREFI, slices: 40},
		{name: "refEdges3", ips: 8e9, gens: synthetic("mcf"), slice: 3 * tREFI, slices: 20},
	}
}

// mitCall is one call a Runner made on a mitigator.
type mitCall struct {
	sub  int
	kind byte // 'A' for OnActivate(a=bank, b=row), 'R' for OnREF(a=index)
	a, b int
	at   dram.Time
}

// recMit records the calls on one sub-channel into a log shared by all
// sub-channels, so a comparison sees where each REF falls among the ACTs.
type recMit struct {
	sub   int
	calls *[]mitCall
	acts  int64
}

func (m *recMit) Name() string { return "record" }
func (m *recMit) OnActivate(bank, row int, now dram.Time) {
	m.acts++
	*m.calls = append(*m.calls, mitCall{m.sub, 'A', bank, row, now})
}
func (m *recMit) WantsALERT() bool { return false }
func (m *recMit) OnREF(refIndex int, now dram.Time) {
	*m.calls = append(*m.calls, mitCall{m.sub, 'R', refIndex, 0, now})
}
func (m *recMit) OnRFM(bank int, now dram.Time) {}
func (m *recMit) ServiceALERT(now dram.Time)    {}
func (m *recMit) TrackStats() track.Stats       { return track.Stats{ACTs: m.acts} }

// footprintGen reports a footprint of its own choosing.
type footprintGen struct {
	trace.Generator
	bytes uint64
}

func (g footprintGen) FootprintBytes() uint64 { return g.bytes }

// TestDifferentialAgainstSequential replays each case through Runner and
// through the sequential oracle in many short Run windows, so chunk and Run
// boundaries fall mid-stream, and requires the same activations in the same
// order at the same times, and the same per-slice Stats. It runs at
// GOMAXPROCS 1 and 2: with one P the producer only runs when Run blocks.
func TestDifferentialAgainstSequential(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, dc := range diffCases(t) {
			t.Run(fmt.Sprintf("%s/procs=%d", dc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := Config{IPS: dc.ips, ASIDs: dc.asids}
				gotMits, wantMits := dc.mits(t), dc.mits(t)
				got, err := NewRunner(cfg, dc.gens(t), gotMits)
				if err != nil {
					t.Fatal(err)
				}
				want := newRefRunner(cfg, dc.gens(t), wantMits)
				var gotActs, wantActs []act
				for i := 1; i <= dc.slices; i++ {
					until := dram.Time(i) * dc.slice
					gotActs, wantActs = gotActs[:0], wantActs[:0]
					got.Run(until, func(sub, bank, row int, now dram.Time) {
						gotActs = append(gotActs, act{sub, bank, row, now})
					})
					want.Run(until, func(sub, bank, row int, now dram.Time) {
						wantActs = append(wantActs, act{sub, bank, row, now})
					})
					if len(gotActs) != len(wantActs) {
						t.Fatalf("slice %d: %d ACTs, oracle %d", i, len(gotActs), len(wantActs))
					}
					for k := range wantActs {
						if gotActs[k] != wantActs[k] {
							t.Fatalf("slice %d ACT %d: %+v, oracle %+v", i, k, gotActs[k], wantActs[k])
						}
					}
					gs, ws := got.Stats(), want.Stats()
					for sub := range ws {
						if gs[sub] != ws[sub] {
							t.Fatalf("slice %d sub %d: stats %+v, oracle %+v", i, sub, gs[sub], ws[sub])
						}
					}
					if got.Now() != want.now {
						t.Fatalf("slice %d: now %v, oracle %v", i, got.Now(), want.now)
					}
				}
				if dc.policy == "record" {
					g, w := *gotMits[0].(*recMit).calls, *wantMits[0].(*recMit).calls
					for k := range min(len(g), len(w)) {
						if g[k] != w[k] {
							t.Fatalf("mitigator call %d: %+v, oracle %+v", k, g[k], w[k])
						}
					}
					if len(g) != len(w) {
						t.Fatalf("%d mitigator calls, oracle %d", len(g), len(w))
					}
				}
				for sub := range gotMits {
					if g, w := track.Source(gotMits[sub]).TrackStats(), track.Source(wantMits[sub]).TrackStats(); g != w {
						t.Errorf("sub %d tracker: %+v, oracle %+v", sub, g, w)
					}
				}
				var total int64
				for _, s := range got.Stats() {
					total += s.ACTs
				}
				if total == 0 {
					t.Fatal("no activations: the case exercises nothing")
				}
			})
		}
	}
}
