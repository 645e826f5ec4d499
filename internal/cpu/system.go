package cpu

import (
	"context"
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/sim"
	"mirza/internal/telemetry"
	"mirza/internal/trace"
	"mirza/internal/vmap"
)

// SystemConfig assembles the full-system simulation.
type SystemConfig struct {
	Cores int        // number of cores (default 8)
	Core  CoreConfig // per-core parameters
	Mem   mem.Config // channel configuration

	// ASIDs assigns each core an address space for translation. Nil keeps
	// the historical default — one private space per core (asid = core
	// index), the rate-mode setup. Multi-tenant runs group cores into
	// shared spaces (e.g. [0,0,0,1,1]: cores 0-2 are one VM, 3-4 another),
	// and trace replays put every shard of one recorded stream in one
	// space. Length must equal Cores; values are bounds-checked.
	ASIDs []int

	// UseLLC inserts the shared last-level cache between the cores and
	// the memory controller. The calibrated Table IV workloads model the
	// post-LLC miss stream directly, so experiments leave this false;
	// raw-access studies and the cache examples set it.
	UseLLC bool
	LLC    LLCConfig
}

// System is a complete simulated machine: kernel, cores, optional LLC,
// page mapper and one DDR5 channel.
type System struct {
	Kernel  *sim.Kernel
	Channel *mem.Channel
	Cores   []*Core
	Mapper  *vmap.Mapper
	LLC     *LLC

	// Watchdog, when non-nil, lets RunCtx abort a stalled simulation
	// (no event-time progress within the wall-clock budget) instead of
	// spinning forever. Run ignores it.
	Watchdog *sim.Watchdog

	memSnapshot  mem.Stats
	posSnapshot  []int64
	snapshotTime dram.Time
}

// NewSystem builds a system running one generator per core.
func NewSystem(cfg SystemConfig, gens []trace.Generator) (*System, error) {
	if cfg.Cores == 0 {
		cfg.Cores = 8
	}
	if len(gens) != cfg.Cores {
		return nil, fmt.Errorf("cpu: %d generators for %d cores", len(gens), cfg.Cores)
	}
	asids := cfg.ASIDs
	if asids == nil {
		asids = make([]int, cfg.Cores)
		for i := range asids {
			asids[i] = i
		}
	}
	if len(asids) != cfg.Cores {
		return nil, fmt.Errorf("cpu: %d ASIDs for %d cores", len(asids), cfg.Cores)
	}
	for _, a := range asids {
		if err := vmap.CheckASID(a); err != nil {
			return nil, fmt.Errorf("cpu: %w", err)
		}
	}
	cfg.Core.setDefaults()

	k := &sim.Kernel{}
	ch, err := mem.NewChannel(k, cfg.Mem)
	if err != nil {
		return nil, err
	}
	s := &System{
		Kernel:  k,
		Channel: ch,
		Mapper:  vmap.NewMapper(ch.Geometry().CapacityBytes()),
	}
	if cfg.UseLLC {
		s.LLC, err = NewLLC(cfg.LLC)
		if err != nil {
			return nil, err
		}
	}
	translate := func(core int, vaddr uint64) uint64 {
		return s.Mapper.Translate(asids[core], vaddr)
	}
	submit := func(r *mem.Request) { s.Channel.Submit(r) }
	for i := 0; i < cfg.Cores; i++ {
		prefault(s.Mapper, asids[i], gens[i])
		s.Cores = append(s.Cores, NewCore(i, cfg.Core, k, gens[i], translate, submit, s.LLC))
	}
	s.posSnapshot = make([]int64, cfg.Cores)
	return s, nil
}

// prefault models the application's initialization sweep: the footprint is
// touched in virtual-address order, so the clock-style allocator hands out
// physically sequential blocks and virtual locality survives physically.
func prefault(m *vmap.Mapper, asid int, gen trace.Generator) {
	fp, ok := gen.(interface{ FootprintBytes() uint64 })
	if !ok {
		return
	}
	for off := uint64(0); off < fp.FootprintBytes(); off += vmap.SuperBytes {
		m.Translate(asid, off)
	}
}

// Run starts (or resumes) all cores and advances simulation to the given
// absolute time.
func (s *System) Run(until dram.Time) {
	s.start()
	s.Kernel.RunUntil(until)
}

// RunCtx is Run under the system's Watchdog and a context. It returns a
// *sim.StallError with a diagnostic snapshot if simulated time stops
// advancing for longer than the watchdog's wall-clock budget (never with a
// nil Watchdog). Cancellation is polled between event batches, so job
// deadlines and -timeout stop a simulation mid-run instead of only at run
// boundaries; on cancellation it returns ctx.Err() with the system left
// resumable.
func (s *System) RunCtx(ctx context.Context, until dram.Time) error {
	s.start()
	return s.Kernel.RunUntilCtx(ctx, until, s.Watchdog)
}

func (s *System) start() {
	if s.Kernel.Now() == 0 && s.snapshotTime == 0 {
		for _, c := range s.Cores {
			c.Start()
		}
	}
}

// Snapshot marks the beginning of a measurement window: IPCs and MemStats
// report deltas from the most recent snapshot.
func (s *System) Snapshot() {
	for _, c := range s.Cores {
		c.SyncClock(s.Kernel.Now())
	}
	s.snapshotTime = s.Kernel.Now()
	s.memSnapshot = s.Channel.Stats()
	for i, c := range s.Cores {
		s.posSnapshot[i] = c.Retired()
	}
}

// IPCs returns each core's IPC over the current measurement window.
func (s *System) IPCs() []float64 {
	for _, c := range s.Cores {
		c.SyncClock(s.Kernel.Now())
	}
	elapsed := s.Kernel.Now() - s.snapshotTime
	out := make([]float64, len(s.Cores))
	if elapsed <= 0 {
		return out
	}
	for i, c := range s.Cores {
		cycles := float64(elapsed) / float64(CycleTime)
		out[i] = float64(c.Retired()-s.posSnapshot[i]) / cycles
	}
	return out
}

// MemStats returns channel counters accumulated over the current
// measurement window.
func (s *System) MemStats() mem.Stats {
	return s.Channel.Stats().Sub(s.memSnapshot)
}

// FlushTelemetry folds the run's counters — channel, trackers, kernel,
// watchdog — into the channel's configured telemetry registry. Call it
// exactly once, after the simulation completes; with telemetry disabled it
// is a no-op.
func (s *System) FlushTelemetry(extra ...telemetry.Label) {
	reg := s.Channel.Telemetry()
	if !reg.Enabled() {
		return
	}
	s.Channel.FlushTelemetry(extra...)
	reg.Counter("sim_events_executed_total", extra...).Add(int64(s.Kernel.Executed()))
	// Add, not Set: parallel jobs flush in nondeterministic order, and sums
	// commute where a last-writer-wins Set would not.
	reg.Gauge("sim_events_pending", extra...).Add(int64(s.Kernel.Pending()))
	reg.Counter("sim_time_total_ps", extra...).Add(int64(s.Kernel.Now()))
	reg.Counter("sim_watchdog_samples_total", extra...).Add(int64(s.Watchdog.Samples()))
}

// Window returns the length of the current measurement window.
func (s *System) Window() dram.Time { return s.Kernel.Now() - s.snapshotTime }

// BusUtilization returns the data-bus utilisation over the measurement
// window, in percent, averaged across sub-channels.
func (s *System) BusUtilization() float64 {
	w := s.Window()
	if w <= 0 {
		return 0
	}
	st := s.MemStats()
	subs := float64(s.Channel.Geometry().SubChannels)
	return 100 * float64(st.BusBusy) / (float64(w) * subs)
}
