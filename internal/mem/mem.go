// Package mem implements the memory controller and channel model: per
// sub-channel FR-FCFS scheduling over a DDR5 bank state machine, the MOP4
// address layout, soft close-page policy, demand refresh (REF every tREFI),
// proactive Refresh Management (RFM via per-bank activation counters), and
// the reactive ALERT-Back-Off protocol. It drives a track.Mitigator with
// every ACT/REF/RFM event, so any tracker (MINT, PRAC, MIRZA, ...) plugs in
// unchanged.
package mem

import (
	"fmt"
	"strconv"

	"mirza/internal/dram"
	"mirza/internal/sim"
	"mirza/internal/telemetry"
	"mirza/internal/track"
)

// Request is one 64-byte memory transaction.
type Request struct {
	Addr  uint64 // physical byte address (line aligned)
	Write bool
	// Done, if non-nil, is invoked when the request's data transfer
	// completes (reads) or the write is accepted by the device.
	Done func(now dram.Time)

	addr    dram.Address
	arrive  dram.Time
	enqueue int64 // arrival order for FCFS tie-breaking

	// doneEv is the reusable data-transfer completion event: the
	// sub-channel schedules it at the request's data-done time and its
	// Fire invokes Done. Owning the event inside the request means a
	// pooled Request costs zero allocations per completion.
	doneEv sim.Event
}

// requestDone adapts a Request to sim.Handler: firing invokes Done.
type requestDone Request

func (e *requestDone) Fire(now dram.Time) { (*Request)(e).Done(now) }

// AlertPhase identifies one transition of the ALERT-Back-Off state machine
// as seen by a CommandObserver.
type AlertPhase int

const (
	// AlertPrologueStart: the controller accepted an ALERT request; normal
	// operation continues for the prologue window.
	AlertPrologueStart AlertPhase = iota
	// AlertStallStart: the stall window begins; every open row has just
	// been force-closed and the channel is unavailable until AlertEnd.
	AlertStallStart
	// AlertEnd: the back-off RFM completed and the channel resumes.
	AlertEnd
)

// String implements fmt.Stringer.
func (p AlertPhase) String() string {
	switch p {
	case AlertPrologueStart:
		return "prologue"
	case AlertStallStart:
		return "stall"
	case AlertEnd:
		return "end"
	default:
		return fmt.Sprintf("AlertPhase(%d)", int(p))
	}
}

// CommandObserver receives every command a sub-channel issues, in issue
// order: the shadow-audit hook (internal/audit) and test instrumentation
// attach here. Observers must be passive — they may not mutate controller
// state — and are invoked synchronously on the scheduling hot path, so
// implementations should be cheap. A nil observer costs one pointer test
// per command site (the same discipline as the teleBankActs telemetry
// hook).
//
// ObservePRE's forced flag distinguishes a device-side forced row close
// (the prologue→stall transition of the ALERT protocol closes every open
// row for the back-off RFM) from a controller-issued precharge: forced
// closes are exempt from the MC-side tRAS/tRTP/tWR checks but still count
// as precharges for conservation (see DESIGN.md §12).
type CommandObserver interface {
	// ObserveSubmit sees a request enter the sub-channel queue.
	ObserveSubmit(sub int, write bool, now dram.Time)
	// ObserveACT sees an activate of (bank, row).
	ObserveACT(sub, bank, row int, now dram.Time)
	// ObservePRE sees a precharge of bank (forced: ALERT-forced close).
	ObservePRE(sub, bank int, forced bool, now dram.Time)
	// ObserveRead / ObserveWrite see a column command to (bank, row).
	ObserveRead(sub, bank, row int, now dram.Time)
	ObserveWrite(sub, bank, row int, now dram.Time)
	// ObserveREF sees the refIndex-th all-bank REF begin executing.
	ObserveREF(sub, refIndex int, now dram.Time)
	// ObserveRFM sees a proactive per-bank RFM begin executing.
	ObserveRFM(sub, bank int, now dram.Time)
	// ObserveAlert sees one ALERT state-machine transition.
	ObserveAlert(sub int, phase AlertPhase, now dram.Time)
}

// Config configures a Channel.
type Config struct {
	Geometry dram.Geometry
	Timing   dram.Timing
	Mapping  dram.R2SAMapping
	// AddrMapping selects the physical-address-to-bank layout
	// (MOP4 by default, Table III).
	AddrMapping dram.AddressMapping

	// WindowDepth bounds how many queued requests the scheduler
	// considers (models a finite command queue). Default 64.
	WindowDepth int

	// RowPressWeighting, when true, converts row-open time into
	// equivalent activations for the mitigation engine (the IMPRESS-style
	// defense the threat model assumes against RowPress, Section II.A):
	// when a row closes after being held open, the tracker observes one
	// extra activation per tRAS of open time beyond the first.
	RowPressWeighting bool

	// RFMBAT, when > 0, enables proactive Refresh Management: the MC
	// counts activations per bank and issues an RFM to a bank whenever
	// its counter reaches this Bank Activation Threshold. The counter is
	// not decremented on REF (Section II.F).
	RFMBAT int

	// NewMitigator constructs the in-DRAM mitigation logic for
	// sub-channel sub, reporting mitigations to sink. nil selects the
	// unprotected baseline.
	NewMitigator func(sub int, sink track.Sink) track.Mitigator

	// Telemetry, when non-nil, receives the channel's metrics: the
	// per-bank ACT histogram is fed live (once per REF), everything else
	// when FlushTelemetry is called at the end of a run. nil keeps the
	// hot path free of telemetry entirely.
	Telemetry *telemetry.Registry
}

func (c *Config) setDefaults() error {
	if c.Geometry.SubChannels == 0 {
		c.Geometry = dram.Default()
	}
	if c.Timing.TRC == 0 {
		c.Timing = dram.DDR5()
	}
	if c.WindowDepth <= 0 {
		c.WindowDepth = 64
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	return c.Timing.Validate()
}

// Stats aggregates one sub-channel's activity counters.
type Stats struct {
	Reads  int64
	Writes int64
	ACTs   int64
	PREs   int64
	REFs   int64
	RFMs   int64
	Alerts int64

	RowHits   int64 // column commands served from an already-open row
	RowMisses int64 // column commands that had to wait for an ACT

	DemandRefreshRows int64 // rows refreshed by REF commands
	Mitigations       int64 // aggressor rows mitigated by the tracker
	VictimRows        int64 // victim rows refreshed by mitigations

	BusBusy    dram.Time // data-bus occupancy
	AlertStall dram.Time // time spent in the ALERT unavailable window
	RefBusy    dram.Time // time spent executing REF
	RFMBusy    dram.Time // bank-time spent executing RFM
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ACTs += other.ACTs
	s.PREs += other.PREs
	s.REFs += other.REFs
	s.RFMs += other.RFMs
	s.Alerts += other.Alerts
	s.RowHits += other.RowHits
	s.RowMisses += other.RowMisses
	s.DemandRefreshRows += other.DemandRefreshRows
	s.Mitigations += other.Mitigations
	s.VictimRows += other.VictimRows
	s.BusBusy += other.BusBusy
	s.AlertStall += other.AlertStall
	s.RefBusy += other.RefBusy
	s.RFMBusy += other.RFMBusy
}

// Sub returns s minus other, field by field (for measurement windows).
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Reads:             s.Reads - other.Reads,
		Writes:            s.Writes - other.Writes,
		ACTs:              s.ACTs - other.ACTs,
		PREs:              s.PREs - other.PREs,
		REFs:              s.REFs - other.REFs,
		RFMs:              s.RFMs - other.RFMs,
		Alerts:            s.Alerts - other.Alerts,
		RowHits:           s.RowHits - other.RowHits,
		RowMisses:         s.RowMisses - other.RowMisses,
		DemandRefreshRows: s.DemandRefreshRows - other.DemandRefreshRows,
		Mitigations:       s.Mitigations - other.Mitigations,
		VictimRows:        s.VictimRows - other.VictimRows,
		BusBusy:           s.BusBusy - other.BusBusy,
		AlertStall:        s.AlertStall - other.AlertStall,
		RefBusy:           s.RefBusy - other.RefBusy,
		RFMBusy:           s.RFMBusy - other.RFMBusy,
	}
}

// Channel is one DDR5 channel: a set of independent sub-channels sharing
// nothing but the address decomposition.
type Channel struct {
	cfg  Config
	dec  dram.Decoder
	subs []*SubChannel
}

// NewChannel builds a channel on kernel k.
func NewChannel(k *sim.Kernel, cfg Config) (*Channel, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ch := &Channel{cfg: cfg, dec: cfg.Geometry.Decoder(cfg.AddrMapping)}
	for i := 0; i < cfg.Geometry.SubChannels; i++ {
		ch.subs = append(ch.subs, newSubChannel(k, cfg, i))
	}
	return ch, nil
}

// Geometry returns the channel's geometry.
func (ch *Channel) Geometry() dram.Geometry { return ch.cfg.Geometry }

// Submit enqueues a request. The request's address is decomposed with the
// configured address mapping (MOP4 by default) and routed to its
// sub-channel.
func (ch *Channel) Submit(r *Request) {
	r.addr = ch.dec.Decompose(r.Addr)
	ch.subs[r.addr.SubChannel].submit(r)
}

// SubChannel returns sub-channel i (for inspection in tests and tools).
func (ch *Channel) SubChannel(i int) *SubChannel { return ch.subs[i] }

// Config returns the channel's effective configuration (defaults applied).
func (ch *Channel) Config() Config { return ch.cfg }

// InstallObserver attaches obs to every sub-channel. It must be called
// before any simulation time elapses: commands issued earlier are not
// replayed to the observer, which would break its shadow state. A nil obs
// detaches the observer.
func (ch *Channel) InstallObserver(obs CommandObserver) {
	for _, s := range ch.subs {
		s.obs = obs
	}
}

// Stats returns the sum of all sub-channel stats.
func (ch *Channel) Stats() Stats {
	var total Stats
	for _, s := range ch.subs {
		total.Add(s.stats)
	}
	return total
}

// Mitigators returns the per-sub-channel mitigation engines.
func (ch *Channel) Mitigators() []track.Mitigator {
	out := make([]track.Mitigator, len(ch.subs))
	for i, s := range ch.subs {
		out[i] = s.mit
	}
	return out
}

// Telemetry returns the registry the channel was configured with (nil when
// telemetry is disabled).
func (ch *Channel) Telemetry() *telemetry.Registry { return ch.cfg.Telemetry }

// FlushTelemetry folds the accumulated per-sub-channel counters and each
// mitigator's tracker stats into the configured registry. Counters are
// cumulative: call it exactly once, after a run completes. With no
// registry configured it is a no-op.
func (ch *Channel) FlushTelemetry(extra ...telemetry.Label) {
	reg := ch.cfg.Telemetry
	if !reg.Enabled() {
		return
	}
	for i, s := range ch.subs {
		labels := append([]telemetry.Label{telemetry.L("sub", strconv.Itoa(i))}, extra...)
		st := s.stats
		reg.Counter("mem_acts_total", labels...).Add(st.ACTs)
		reg.Counter("mem_pres_total", labels...).Add(st.PREs)
		reg.Counter("mem_reads_total", labels...).Add(st.Reads)
		reg.Counter("mem_writes_total", labels...).Add(st.Writes)
		reg.Counter("mem_refs_total", labels...).Add(st.REFs)
		reg.Counter("mem_rfms_total", labels...).Add(st.RFMs)
		reg.Counter("mem_alerts_total", labels...).Add(st.Alerts)
		reg.Counter("mem_row_hits_total", labels...).Add(st.RowHits)
		reg.Counter("mem_row_misses_total", labels...).Add(st.RowMisses)
		reg.Counter("mem_demand_refresh_rows_total", labels...).Add(st.DemandRefreshRows)
		reg.Counter("mem_mitigations_total", labels...).Add(st.Mitigations)
		reg.Counter("mem_victim_rows_total", labels...).Add(st.VictimRows)
		reg.Counter("mem_bus_busy_ps_total", labels...).Add(int64(st.BusBusy))
		reg.Counter("mem_alert_stall_ps_total", labels...).Add(int64(st.AlertStall))
		reg.Counter("mem_ref_busy_ps_total", labels...).Add(int64(st.RefBusy))
		reg.Counter("mem_rfm_busy_ps_total", labels...).Add(int64(st.RFMBusy))
		reg.Counter("mem_wakes_total", labels...).Add(s.wakes)
		reg.Counter("mem_wake_steps_total", labels...).Add(s.steps)
		track.FlushTelemetry(reg, s.mit, labels...)
	}
}

// PendingRequests returns the number of requests queued across
// sub-channels (for drain checks).
func (ch *Channel) PendingRequests() int {
	n := 0
	for _, s := range ch.subs {
		n += s.PendingRequests()
	}
	return n
}

func (c Config) String() string {
	return fmt.Sprintf("mem.Config{mapping=%s bat=%d window=%d}", c.Mapping, c.RFMBAT, c.WindowDepth)
}
