package track

import (
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/stats"
)

// PRACConfig configures the PRAC+ABO mitigator.
type PRACConfig struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	// AlertThreshold (ATH) is the per-row activation count at which the
	// device asserts ALERT-Back-Off. Following MOAT (ASPLOS'25), a target
	// double-sided threshold TRHD is tolerated with ATH comfortably below
	// TRHD/2 minus the ACTs an attacker can land during the ABO protocol.
	AlertThreshold int
}

// ABOSlack is the activations that land between ALERT assertion and
// mitigation: prologue ACTs plus the queue-drain worst case (ABO_ACTS,
// Section VI.A/Fig 10).
const ABOSlack = 8

// ATHForTRHD returns a MOAT-style ALERT threshold for a target TRHD: half
// the threshold (each aggressor of a double-sided pair accrues its own
// count) minus ABOSlack.
func ATHForTRHD(trhd int) int {
	ath := trhd/2 - ABOSlack
	if ath < 1 {
		ath = 1
	}
	return ath
}

// PRAC models Per-Row Activation Counting with ALERT-Back-Off, in the style
// of MOAT: every row has an activation counter (stored in the DRAM array;
// here a RowCounters store), incremented on each ACT. When any counter
// reaches the ALERT threshold the device asserts ALERT; servicing the ALERT
// mitigates the offending row in each bank and resets its counter. Counters
// reset when their row is refreshed.
//
// The performance cost of PRAC comes from its inflated timings (dram.PRAC),
// which the memory controller applies when this mitigator is selected; the
// tracker itself is mitigation-silent for benign workloads at the paper's
// thresholds.
type PRAC struct {
	abo
}

var _ Mitigator = (*PRAC)(nil)

// NewPRAC builds a PRAC+ABO mitigator.
func NewPRAC(cfg PRACConfig, sink Sink) *PRAC {
	if cfg.AlertThreshold < 1 || cfg.AlertThreshold > MaxRowCount {
		panic(fmt.Sprintf("track: PRAC alert threshold must be in [1, %d], got %d", MaxRowCount, cfg.AlertThreshold))
	}
	return &PRAC{newABO(cfg.Geometry, cfg.Mapping, cfg.AlertThreshold, sink)}
}

// Name implements Mitigator.
func (p *PRAC) Name() string { return fmt.Sprintf("PRAC+ABO(ATH=%d)", p.ath) }

// OnActivate implements Mitigator.
func (p *PRAC) OnActivate(bank, row int, now dram.Time) {
	p.Stats.ACTs++
	p.bump(p.rows.Counter(bank, row), bank, row, 1)
}

// InjectStateFault implements StateInjector: it flips one low-order bit of
// a random row's activation counter in a random bank, modeling a transient
// upset of a PRAC counter stored in the DRAM array. A downward flip hides
// real activations from the tracker; an upward flip can push a benign row
// over the ALERT threshold without the crossing ever being observed by
// OnActivate (the counter saturates silently) — both are the corruptions
// whose effect on the security margin the fault harness measures.
func (p *PRAC) InjectStateFault(rng *stats.RNG) string {
	bank, row, bit := p.rows.Flip(rng, 12) // ATH values need at most 12 bits
	return fmt.Sprintf("prac[bank=%d][row=%d] bit %d", bank, row, bit)
}

// MaxCounter returns the largest per-row counter value currently held in
// bank (useful for tests and attack analyses).
func (p *PRAC) MaxCounter(bank int) int { return p.rows.Max(bank) }

// abo is the ALERT-Back-Off core PRAC and MoPAC share: per-row counters,
// a FIFO per bank of the rows whose counter reached the ALERT threshold,
// and the ALERT, RFM and REF handling that drains it. Each policy adds its
// own OnActivate, which counts the ACT and bumps the row's counter.
type abo struct {
	rows    RowCounters
	sink    Sink
	ath     int
	pending [][]int // rows at/above ath awaiting mitigation, per bank
	want    bool
	Stats   Stats
}

func newABO(g dram.Geometry, mapping dram.R2SAMapping, ath int, sink Sink) abo {
	if sink == nil {
		sink = NopSink{}
	}
	return abo{
		rows:    NewRowCounters(g, mapping),
		sink:    sink,
		ath:     ath,
		pending: make([][]int, g.BanksPerSubChannel),
	}
}

// bump adds inc to c, row's counter in bank, unless it already reached the
// ALERT threshold (the row is then pending; the counter saturates), and
// queues the row and raises ALERT when the addition reaches it. The caller
// looks the counter up, so that both the lookup and bump inline into its
// OnActivate.
func (a *abo) bump(c *uint16, bank, row, inc int) {
	if int(*c) >= a.ath {
		return
	}
	*c += uint16(inc)
	if int(*c) >= a.ath {
		a.pending[bank] = append(a.pending[bank], row)
		a.Stats.Insertions++
		if !a.want {
			a.want = true
			a.Stats.AlertsWanted++
		}
	}
}

// WantsALERT implements Mitigator.
func (a *abo) WantsALERT() bool { return a.want }

// OnREF implements Mitigator: the rows refreshed by this REF have their
// counters cleared in every bank, and leave the pending queue.
func (a *abo) OnREF(refIndex int, now dram.Time) {
	a.rows.Refresh(refIndex, func(bank, row int, old uint16) {
		if int(old) >= a.ath {
			a.removePending(bank, row)
		}
	})
	a.recomputeWant()
}

// OnRFM implements Mitigator: ABO mitigates reactively only, but an
// unsolicited RFM opportunity still drains one pending row for the bank.
func (a *abo) OnRFM(bank int, now dram.Time) {
	a.Stats.RFMs++
	a.mitigateOne(bank, now)
	a.recomputeWant()
}

// ServiceALERT implements Mitigator: each bank mitigates one pending row.
func (a *abo) ServiceALERT(now dram.Time) {
	for b := range a.pending {
		a.mitigateOne(b, now)
	}
	a.recomputeWant()
}

// TrackStats implements StatsSource.
func (a *abo) TrackStats() Stats { return a.Stats }

func (a *abo) mitigateOne(bank int, now dram.Time) {
	q := a.pending[bank]
	if len(q) == 0 {
		return
	}
	row := q[0]
	a.pending[bank] = q[1:]
	*a.rows.Counter(bank, row) = 0
	a.Stats.Mitigations++
	a.sink.RowMitigated(bank, row, MitigationVictims, now)
}

func (a *abo) removePending(bank, row int) {
	q := a.pending[bank]
	for i, r := range q {
		if r == row {
			a.pending[bank] = append(q[:i], q[i+1:]...)
			a.Stats.Evictions++
			return
		}
	}
}

func (a *abo) recomputeWant() {
	for _, q := range a.pending {
		if len(q) > 0 {
			if !a.want {
				a.want = true
				a.Stats.AlertsWanted++
			}
			return
		}
	}
	a.want = false
}
