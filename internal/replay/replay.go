// Package replay provides a fast, timing-free activation-stream replayer.
//
// The full-system simulator (internal/cpu + internal/mem) is cycle-level
// and therefore expensive for statistics that need one or more complete
// 32ms refresh windows (coarse-grained-filter escape rates, ACTs/subarray
// distributions, ALERT rates, refresh-power overheads). The replayer
// reproduces just the parts those statistics depend on: the per-workload
// activation stream (generators + page mapping + MOP4 decomposition + an
// open-row coalescing filter) on a time axis set by the workload's
// measured instruction rate, interleaved with the REF walk, driving the
// same track.Mitigator implementations as the timing simulator. A short
// timing-simulation run calibrates the instruction rate; the replayer then
// covers refresh windows at a small fraction of the cost, and its warmed
// mitigator state can be carried back into the timing simulator.
package replay

import (
	"fmt"
	"math"

	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
	"mirza/internal/vmap"
)

// Config parameterizes a replay run.
type Config struct {
	Geometry dram.Geometry
	Timing   dram.Timing
	// IPS is the aggregate instruction rate of all cores (from a timing
	// calibration run); it sets the replay's time axis.
	IPS float64
	// RowOpenWindow is the open-row coalescing window: an access to the
	// row most recently opened in its bank within this window is treated
	// as a row hit rather than a new activation. Default 150ns,
	// calibrated against the timing simulator's ACT rates.
	RowOpenWindow dram.Time
	// ASIDs assigns each core an address space (see cpu.SystemConfig).
	// Nil defaults to one private space per core.
	ASIDs []int
}

func (c *Config) setDefaults() error {
	if c.Geometry.SubChannels == 0 {
		c.Geometry = dram.Default()
	}
	if c.Timing.TRC == 0 {
		c.Timing = dram.DDR5()
	}
	if c.RowOpenWindow == 0 {
		c.RowOpenWindow = 150 * dram.Nanosecond
	}
	if c.RowOpenWindow < 0 {
		return fmt.Errorf("replay: RowOpenWindow must not be negative, got %v", c.RowOpenWindow)
	}
	if !(c.IPS > 0) || math.IsInf(c.IPS, 1) {
		return fmt.Errorf("replay: IPS must be positive and finite, got %v", c.IPS)
	}
	return c.Geometry.Validate()
}

// Stats accumulates replay counters per sub-channel.
type Stats struct {
	Accesses int64
	ACTs     int64
	REFs     int64
	Alerts   int64
}

// Observer receives every activation the replay produces.
type Observer func(sub, bank, row int, now dram.Time)

type bankRow struct {
	row    int
	lastAt dram.Time
}

// Runner replays workload activation streams into mitigators.
type Runner struct {
	cfg    Config
	dec    dram.Decoder
	mapper *vmap.Mapper
	mits   []track.Mitigator
	asids  []int

	feed     *feed
	coreKey  []uint64 // per core: the merge key of its next op (see feedOp)
	coreLine []uint64 // per core: the virtual line of its next op

	banks   [][]bankRow // [sub][bank]
	refDue  []dram.Time
	refIdx  []int
	refNext dram.Time // the earliest refDue

	now   dram.Time
	stats []Stats
}

// NewRunner builds a replayer over one generator per core. mits supplies
// one mitigator per sub-channel (nil entries run unprotected).
//
// The Runner owns gens from here on: it draws their ops ahead of Run on a
// goroutine of its own, so a generator may not be shared between cores or
// Runners, nor used by the caller after it is handed over.
func NewRunner(cfg Config, gens []trace.Generator, mits []track.Mitigator) (*Runner, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("replay: need at least one generator")
	}
	if len(gens) > maxCores {
		return nil, fmt.Errorf("replay: %d cores, at most %d", len(gens), maxCores)
	}
	// A core's clock is its cumulative instruction count over the per-core
	// rate; one instruction must span a representable time, or the clock
	// converts to garbage and Run never reaches its end time, and at least
	// one picosecond, or the clocks stall at 0 ps steps and Run crawls.
	step := 1 / (cfg.IPS / float64(len(gens))) * 1e12
	if !(step < math.MaxInt64) {
		return nil, fmt.Errorf("replay: IPS %v over %d cores is too low: one instruction takes %v ps", cfg.IPS, len(gens), step)
	}
	if step < 1 {
		return nil, fmt.Errorf("replay: IPS %v over %d cores is too high: one instruction takes %v ps", cfg.IPS, len(gens), step)
	}
	if mits == nil {
		mits = make([]track.Mitigator, cfg.Geometry.SubChannels)
	}
	if len(mits) != cfg.Geometry.SubChannels {
		return nil, fmt.Errorf("replay: %d mitigators for %d sub-channels", len(mits), cfg.Geometry.SubChannels)
	}
	asids := cfg.ASIDs
	if asids == nil {
		asids = make([]int, len(gens))
		for i := range asids {
			asids[i] = i
		}
	}
	if len(asids) != len(gens) {
		return nil, fmt.Errorf("replay: %d ASIDs for %d cores", len(asids), len(gens))
	}
	for _, a := range asids {
		if err := vmap.CheckASID(a); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	r := &Runner{
		cfg:      cfg,
		dec:      cfg.Geometry.Decoder(dram.MOP4Mapping),
		mapper:   vmap.NewMapper(cfg.Geometry.CapacityBytes()),
		mits:     mits,
		asids:    asids,
		coreKey:  make([]uint64, len(gens)),
		coreLine: make([]uint64, len(gens)),
		refDue:   make([]dram.Time, cfg.Geometry.SubChannels),
		refIdx:   make([]int, cfg.Geometry.SubChannels),
		refNext:  cfg.Timing.TREFI,
		stats:    make([]Stats, cfg.Geometry.SubChannels),
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
		// Model the init-phase sequential faulting (see cpu.System).
		if fp, ok := gens[c].(interface{ FootprintBytes() uint64 }); ok {
			for off := uint64(0); off < fp.FootprintBytes(); off += vmap.SuperBytes {
				r.mapper.Translate(asids[c], off)
			}
		}
	}
	r.feed = newFeed(gens, cfg.IPS)
	for c := range gens {
		op := r.feed.head(c)
		r.coreKey[c], r.coreLine[c] = op.key, op.line
	}
	return r, nil
}

// Now returns the replay clock.
func (r *Runner) Now() dram.Time { return r.now }

// Stats returns the per-sub-channel counters.
func (r *Runner) Stats() []Stats { return append([]Stats(nil), r.stats...) }

// Mitigators returns the attached mitigators.
func (r *Runner) Mitigators() []track.Mitigator { return r.mits }

// Run replays until the clock reaches the given absolute time. obs may be
// nil. A panic in a generator re-panics here with its original value. Run
// panics if until lies past the merge-key horizon, 2^63 ps over the core
// count rounded up to a power of two.
func (r *Runner) Run(until dram.Time, obs Observer) {
	if h := r.feed.horizon; until > h {
		panic(fmt.Sprintf("replay: Run until %d ps lies past the merge-key horizon of %d cores, %d ps", until, len(r.coreKey), h))
	}
	r.feed.start()
	defer r.feed.stop()
	keys, shift := r.coreKey, r.feed.coreBits
	mask := uint64(1)<<shift - 1
	for {
		// Next core event: the smallest key is the earliest core, ties to
		// the lowest index. Keys stay below 2^63, so the sign of ki-k
		// picks the smaller one without a branch.
		k := keys[0]
		for _, ki := range keys[1:] {
			d := ki - k
			k += d & uint64(int64(d)>>63)
		}
		c, tc := int(k&mask), dram.Time(k>>shift)
		if tc >= until {
			r.fireREFs(until)
			r.now = until
			return
		}
		if tc >= r.refNext {
			r.fireREFs(tc)
		}
		r.now = tc

		phys := r.mapper.Translate(r.asids[c], r.coreLine[c]*trace.LineBytes)
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

		// Advance the core to its next operation.
		op := r.feed.next(c)
		keys[c], r.coreLine[c] = op.key, op.line
	}
}

// fireREFs issues every REF due by upTo, sub-channel by sub-channel, and
// moves refNext to the earliest one still pending.
func (r *Runner) fireREFs(upTo dram.Time) {
	next := dram.Time(math.MaxInt64)
	for sub := range r.refDue {
		for r.refDue[sub] <= upTo {
			r.stats[sub].REFs++
			if mit := r.mits[sub]; mit != nil {
				mit.OnREF(r.refIdx[sub], r.refDue[sub]) // 0-based
			}
			r.refIdx[sub]++
			r.refDue[sub] += r.cfg.Timing.TREFI
		}
		next = min(next, r.refDue[sub])
	}
	r.refNext = next
}
