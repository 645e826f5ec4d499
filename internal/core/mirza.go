package core

import (
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// MirzaStats collects the per-sub-channel counters the experiments consume.
type MirzaStats struct {
	ACTs         int64 // all activations observed
	Filtered     int64 // activations absorbed by the RCT (count <= FTH)
	Escaped      int64 // activations that escaped filtering
	QueueHits    int64 // escaped ACTs whose row was already queued
	Selections   int64 // rows captured by MINT and inserted in MIRZA-Q
	DroppedSel   int64 // MINT selections lost to a full queue (adversarial timing only)
	Mitigations  int64 // rows mitigated via ALERT service
	AlertsRaised int64 // distinct ALERT requests raised
	EdgeDouble   int64 // edge-row double increments of the RCT
}

// EscapeProbability returns Escaped/ACTs (the CGF escape probability used
// in Tables VI, VIII and IX).
func (s MirzaStats) EscapeProbability() float64 {
	if s.ACTs == 0 {
		return 0
	}
	return float64(s.Escaped) / float64(s.ACTs)
}

// MitigationRate returns Mitigations/ACTs (the mitigation overhead of
// Table VIII).
func (s MirzaStats) MitigationRate() float64 {
	if s.ACTs == 0 {
		return 0
	}
	return float64(s.Mitigations) / float64(s.ACTs)
}

// bankState is the per-bank portion of MIRZA: the RCT column, the MINT
// sampler, and the MIRZA-Q.
type bankState struct {
	rct   []int32 // region counters, saturating at FTH+1
	rrc   int32   // Refreshed-Region-Counter (safe reset, Appendix B)
	queue *Queue
	mint  *track.MINTSampler
}

// Mirza implements track.Mitigator for one sub-channel. Structures are
// replicated per bank as in Figure 8; the ALERT request is channel-wide.
type Mirza struct {
	cfg     Config
	regions regionMap
	sink    track.Sink

	banks []bankState
	// refreshingRegion is the region currently mid-refresh (-1 if none);
	// REF proceeds in lockstep across banks so one value suffices, while
	// the RRC value itself is per bank.
	refreshingRegion int

	want  bool
	Stats MirzaStats
}

var _ track.Mitigator = (*Mirza)(nil)

// New builds a MIRZA mitigator from cfg, reporting mitigations to sink
// (which may be nil).
func New(cfg Config, sink track.Sink) (*Mirza, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		sink = track.NopSink{}
	}
	m := &Mirza{cfg: cfg, regions: newRegionMap(cfg), sink: sink, refreshingRegion: -1}
	rng := cfg.newRNG()
	m.banks = make([]bankState, cfg.Geometry.BanksPerSubChannel)
	for i := range m.banks {
		m.banks[i] = bankState{
			rct:   make([]int32, cfg.Regions),
			queue: NewQueue(cfg.QueueSize),
			mint:  track.NewMINTSampler(cfg.MINTWindow, rng.Split()),
		}
	}
	return m, nil
}

// MustNew is New, panicking on configuration errors. It is a convenience
// for tests, examples and factory closures whose configuration has already
// passed Config.Validate; library code that can return an error should use
// New, leaving runner-level panic recovery as the backstop rather than the
// error handler.
func MustNew(cfg Config, sink track.Sink) *Mirza {
	m, err := New(cfg, sink)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the configuration the mitigator was built with.
func (m *Mirza) Config() Config { return m.cfg }

// Name implements track.Mitigator.
func (m *Mirza) Name() string { return m.cfg.String() }

// OnActivate implements track.Mitigator. It realizes the three-case
// operation of Section V.B:
//  1. RCT counter <= FTH: increment it (filtered, no mitigation work);
//  2. counter beyond FTH and row already queued: bump its tardiness;
//  3. counter beyond FTH and row not queued: participate in MINT selection
//     and, if selected, enter MIRZA-Q.
func (m *Mirza) OnActivate(bank, row int, now dram.Time) {
	m.Stats.ACTs++
	b := &m.banks[bank]
	region, edge := m.regions.of(row)

	filtered := m.bumpRegion(b, region)
	if edge >= 0 {
		m.Stats.EdgeDouble++
		// The edge-row rule increments the neighbor region as well; the
		// filtering outcome is decided by the row's own region.
		m.bumpRegion(b, edge)
	}
	if filtered {
		m.Stats.Filtered++
		return
	}
	m.Stats.Escaped++

	if t, ok := b.queue.Touch(row); ok {
		m.Stats.QueueHits++
		if t > m.cfg.QTH {
			m.raiseALERT()
		}
		return
	}

	if b.mint.ObserveRolling(row) {
		if b.queue.Insert(row) {
			m.Stats.Selections++
			if b.queue.Full() {
				m.raiseALERT()
			}
		} else {
			// A selection with a full queue can only happen under
			// adversarial timing while an ALERT is already outstanding
			// (Validate enforces W >= 4, which bounds steady-state
			// insertions to one per ALERT, Section V.D).
			m.Stats.DroppedSel++
			m.raiseALERT()
		}
	}
}

// bumpRegion applies the RCT counting rule to region of bank b and reports
// whether the activation is filtered. While the region is mid-refresh the
// Refreshed-Region-Counter both receives the update and decides filtering
// (safe reset, Appendix B).
func (m *Mirza) bumpRegion(b *bankState, region int) (filtered bool) {
	fth := int32(m.cfg.FTH)
	if m.cfg.ResetPolicy == SafeReset && region == m.refreshingRegion {
		if b.rct[region] <= fth {
			b.rct[region]++
		}
		if b.rrc <= fth {
			b.rrc++
			return true
		}
		return false
	}
	if b.rct[region] <= fth {
		b.rct[region]++
		return true
	}
	return false
}

func (m *Mirza) raiseALERT() {
	if !m.want {
		m.want = true
		m.Stats.AlertsRaised++
	}
}

// WantsALERT implements track.Mitigator.
func (m *Mirza) WantsALERT() bool { return m.want }

// OnREF implements track.Mitigator: it advances the refresh sequence and
// applies the configured RCT reset policy at region boundaries.
func (m *Mirza) OnREF(refIndex int, now dram.Time) {
	region, beginsRegion, endsRegion := m.regions.refRegion(m.cfg.Geometry.RefreshTargetOf(refIndex))

	switch m.cfg.ResetPolicy {
	case SafeReset:
		if beginsRegion {
			m.refreshingRegion = region
			for i := range m.banks {
				m.banks[i].rrc = m.banks[i].rct[region]
				m.banks[i].rct[region] = 0
			}
		}
		if endsRegion && m.refreshingRegion == region {
			m.refreshingRegion = -1
		}
	case EagerReset:
		if beginsRegion {
			for i := range m.banks {
				m.banks[i].rct[region] = 0
			}
		}
	case LazyReset:
		if endsRegion {
			for i := range m.banks {
				m.banks[i].rct[region] = 0
			}
		}
	}
}

// OnRFM implements track.Mitigator. MIRZA performs no proactive mitigation
// under RFM (Table XII: zero refresh cannibalization), but an unsolicited
// opportunity still drains the queue for robustness when a memory
// controller is configured with both RFM and MIRZA.
func (m *Mirza) OnRFM(bank int, now dram.Time) {
	m.mitigateBank(bank, now)
	m.recomputeWant()
}

// ServiceALERT implements track.Mitigator: every bank mitigates its
// highest-tardiness queued entry.
func (m *Mirza) ServiceALERT(now dram.Time) {
	for bank := range m.banks {
		m.mitigateBank(bank, now)
	}
	m.recomputeWant()
}

func (m *Mirza) mitigateBank(bank int, now dram.Time) {
	e, ok := m.banks[bank].queue.TakeMax()
	if !ok {
		return
	}
	m.Stats.Mitigations++
	m.sink.RowMitigated(bank, e.Row, track.MitigationVictims, now)
}

func (m *Mirza) recomputeWant() {
	for i := range m.banks {
		b := &m.banks[i]
		if b.queue.Full() || b.queue.MaxTardiness() > m.cfg.QTH {
			m.want = true
			return
		}
	}
	m.want = false
}

// RegionCount returns bank's RCT value for region (tests/tools).
func (m *Mirza) RegionCount(bank, region int) int {
	return int(m.banks[bank].rct[region])
}

// QueueSnapshot returns the valid MIRZA-Q entries of bank (tests/tools).
func (m *Mirza) QueueSnapshot(bank int) []QueueEntry {
	return m.banks[bank].queue.Entries()
}

// InjectStateFault implements track.StateInjector: it flips one bit of
// MIRZA's per-bank SRAM state. Most upsets land in the RCT (it dominates
// the SRAM budget — 176 of 196 bytes at TRHD=1K), so seven in eight flips
// corrupt a random region counter; the rest hit the MIRZA-Q tardiness
// counters (or the RRC while a refresh is mid-region). A downward RCT flip
// re-opens the filter for an already-hot region; an upward flip leaks
// benign activations into MINT selection — exactly the tracker-state
// corruption the fault harness is built to measure.
func (m *Mirza) InjectStateFault(rng *stats.RNG) string {
	bank := rng.Intn(len(m.banks))
	b := &m.banks[bank]
	if rng.Intn(8) == 0 {
		if n := b.queue.Len(); n > 0 {
			bit := rng.Intn(8) // tardiness counters are byte-wide
			row, _ := b.queue.FlipTardinessBit(rng.Intn(n), bit)
			return fmt.Sprintf("mirzaq[bank=%d][row=%d] tardiness bit %d", bank, row, bit)
		}
		if m.refreshingRegion >= 0 {
			bit := rng.Intn(m.cfg.CounterBits())
			b.rrc ^= 1 << bit
			return fmt.Sprintf("rrc[bank=%d] bit %d", bank, bit)
		}
		// Queue empty and no refresh in flight: fall through to the RCT.
	}
	region := rng.Intn(len(b.rct))
	bit := rng.Intn(m.cfg.CounterBits())
	b.rct[region] ^= 1 << bit
	return fmt.Sprintf("rct[bank=%d][region=%d] bit %d", bank, region, bit)
}

// ResetStats zeroes the statistics counters, preserving all tracker state
// (RCT counters, queues, MINT windows). Used when a warmed-up mitigator is
// carried from the replay phase into the timing simulation.
func (m *Mirza) ResetStats() { m.Stats = MirzaStats{} }

// TrackStats implements track.StatsSource, mapping MIRZA's counters onto
// the common vocabulary: insertions are MINT selections entering the
// MIRZA-Q and evictions are selections dropped by a full queue.
func (m *Mirza) TrackStats() track.Stats {
	return track.Stats{
		ACTs:         m.Stats.ACTs,
		Mitigations:  m.Stats.Mitigations,
		AlertsWanted: m.Stats.AlertsRaised,
		Insertions:   m.Stats.Selections,
		Evictions:    m.Stats.DroppedSel,
	}
}
