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

// ATHForTRHD returns a MOAT-style ALERT threshold for a target TRHD: half
// the threshold (each aggressor of a double-sided pair accrues its own
// count) minus slack for the activations that land between ALERT assertion
// and mitigation (prologue ACTs plus the queue-drain worst case).
func ATHForTRHD(trhd int) int {
	const slack = 8 // ABO_ACTS worst case, Section VI.A/Fig 10
	ath := trhd/2 - slack
	if ath < 1 {
		ath = 1
	}
	return ath
}

// PRAC models Per-Row Activation Counting with ALERT-Back-Off, in the style
// of MOAT: every row has an activation counter (stored in the DRAM array;
// here plain memory), incremented on each ACT. When any counter reaches the
// ALERT threshold the device asserts ALERT; servicing the ALERT mitigates
// the offending row in each bank and resets its counter. Counters reset
// when their row is refreshed.
//
// The performance cost of PRAC comes from its inflated timings (dram.PRAC),
// which the memory controller applies when this mitigator is selected; the
// tracker itself is mitigation-silent for benign workloads at the paper's
// thresholds.
//
// The counters are held in chunks of pracChunkRows rows, allocated when a
// row of the chunk first activates; an absent chunk reads as all zeros. A
// dense array would be 8 MiB per sub-channel at the default geometry, and
// how much of it is resident would depend on where the Go heap placed it
// and on the scavenger's timing, so peak memory would vary from run to
// run. A simulation activates a small share of the rows, and the counters'
// footprint follows the rows it activates.
type PRAC struct {
	cfg      PRACConfig
	sink     Sink
	counters [][]*pracChunk // [bank][row/pracChunkRows], nil until activated
	pending  [][]int        // rows at/above ATH awaiting mitigation, per bank
	want     bool
	Stats    Stats
}

// pracChunkRows is how many rows' counters PRAC allocates at once.
const pracChunkRows = 1024

type pracChunk [pracChunkRows]uint16

var _ Mitigator = (*PRAC)(nil)

// NewPRAC builds a PRAC+ABO mitigator.
func NewPRAC(cfg PRACConfig, sink Sink) *PRAC {
	if sink == nil {
		sink = NopSink{}
	}
	if cfg.AlertThreshold < 1 {
		panic(fmt.Sprintf("track: PRAC alert threshold must be >= 1, got %d", cfg.AlertThreshold))
	}
	p := &PRAC{cfg: cfg, sink: sink}
	banks := cfg.Geometry.BanksPerSubChannel
	p.counters = make([][]*pracChunk, banks)
	p.pending = make([][]int, banks)
	chunks := (cfg.Geometry.RowsPerBank + pracChunkRows - 1) / pracChunkRows
	for b := range p.counters {
		p.counters[b] = make([]*pracChunk, chunks)
	}
	return p
}

// counter returns row's counter in bank, allocating its chunk on first use.
func (p *PRAC) counter(bank, row int) *uint16 {
	cs := p.counters[bank]
	c := cs[row/pracChunkRows]
	if c == nil {
		c = new(pracChunk)
		cs[row/pracChunkRows] = c
	}
	return &c[row%pracChunkRows]
}

// Name implements Mitigator.
func (p *PRAC) Name() string { return fmt.Sprintf("PRAC+ABO(ATH=%d)", p.cfg.AlertThreshold) }

// OnActivate implements Mitigator.
func (p *PRAC) OnActivate(bank, row int, now dram.Time) {
	p.Stats.ACTs++
	c := p.counter(bank, row)
	if int(*c) >= p.cfg.AlertThreshold {
		// Already pending; nothing more to record (saturate).
		return
	}
	*c++
	if int(*c) >= p.cfg.AlertThreshold {
		p.pending[bank] = append(p.pending[bank], row)
		p.Stats.Insertions++
		if !p.want {
			p.want = true
			p.Stats.AlertsWanted++
		}
	}
}

// WantsALERT implements Mitigator.
func (p *PRAC) WantsALERT() bool { return p.want }

// OnREF implements Mitigator: the rows refreshed by this REF have their
// counters cleared in every bank.
func (p *PRAC) OnREF(refIndex int, now dram.Time) {
	g := p.cfg.Geometry
	t := g.RefreshTargetOf(refIndex)
	for idx := t.FirstIdx; idx <= t.LastIdx; idx++ {
		row := g.RowAt(p.cfg.Mapping, t.Subarray, idx)
		for b, cs := range p.counters {
			c := cs[row/pracChunkRows]
			if c == nil {
				continue
			}
			if int(c[row%pracChunkRows]) >= p.cfg.AlertThreshold {
				p.removePending(b, row)
			}
			c[row%pracChunkRows] = 0
		}
	}
	p.recomputeWant()
}

// OnRFM implements Mitigator: PRAC uses reactive mitigation only, but an
// unsolicited RFM opportunity still drains one pending row for the bank.
func (p *PRAC) OnRFM(bank int, now dram.Time) {
	p.Stats.RFMs++
	p.mitigateOne(bank, now)
	p.recomputeWant()
}

// ServiceALERT implements Mitigator: each bank mitigates one pending row.
func (p *PRAC) ServiceALERT(now dram.Time) {
	for b := range p.pending {
		p.mitigateOne(b, now)
	}
	p.recomputeWant()
}

func (p *PRAC) mitigateOne(bank int, now dram.Time) {
	q := p.pending[bank]
	if len(q) == 0 {
		return
	}
	row := q[0]
	p.pending[bank] = q[1:]
	*p.counter(bank, row) = 0
	p.Stats.Mitigations++
	p.sink.RowMitigated(bank, row, MitigationVictims, now)
}

func (p *PRAC) removePending(bank, row int) {
	q := p.pending[bank]
	for i, r := range q {
		if r == row {
			p.pending[bank] = append(q[:i], q[i+1:]...)
			p.Stats.Evictions++
			return
		}
	}
}

// TrackStats implements StatsSource.
func (p *PRAC) TrackStats() Stats { return p.Stats }

func (p *PRAC) recomputeWant() {
	for _, q := range p.pending {
		if len(q) > 0 {
			if !p.want {
				p.want = true
				p.Stats.AlertsWanted++
			}
			return
		}
	}
	p.want = false
}

// InjectStateFault implements StateInjector: it flips one low-order bit of
// a random row's activation counter in a random bank, modeling a transient
// upset of a PRAC counter stored in the DRAM array. A downward flip hides
// real activations from the tracker; an upward flip can push a benign row
// over the ALERT threshold without the crossing ever being observed by
// OnActivate (the counter saturates silently) — both are the corruptions
// whose effect on the security margin the fault harness measures.
func (p *PRAC) InjectStateFault(rng *stats.RNG) string {
	bank := rng.Intn(len(p.counters))
	row := rng.Intn(p.cfg.Geometry.RowsPerBank)
	bit := rng.Intn(12) // ATH values need at most 12 bits
	*p.counter(bank, row) ^= 1 << bit
	return fmt.Sprintf("prac[bank=%d][row=%d] bit %d", bank, row, bit)
}

// MaxCounter returns the largest per-row counter value currently held in
// bank (useful for tests and attack analyses).
func (p *PRAC) MaxCounter(bank int) int {
	max := 0
	for _, c := range p.counters[bank] {
		if c == nil {
			continue
		}
		for _, v := range c {
			if int(v) > max {
				max = int(v)
			}
		}
	}
	return max
}
