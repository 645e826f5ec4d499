package policies

// Loaded Dice ("Solving the Non-Selection Problem for Scalable
// Probabilistic RowHammer Defense", PAPERS.md) in one self-contained file.
// MINT picks a random target index up front, so a mitigation opportunity
// that arrives before the target is reached finds nothing selected — the
// non-selection problem. Loaded Dice instead keeps a live selection at all
// times with escalating capture odds: the k-th activation since the last
// mitigation replaces the current selection with probability 1/k. Every
// activation in the window is selected with equal probability and a
// selection always exists after the first ACT, so every RFM opportunity
// performs useful work.

import (
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// LoadedDiceConfig configures the Loaded Dice baseline.
type LoadedDiceConfig struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	// Window is the RFM cadence W: the memory controller grants one
	// mitigation every W activations per bank.
	Window int
	Seed   uint64
}

type diceBank struct {
	rng      *stats.RNG
	acts     int // activations since the last mitigation opportunity
	selected int
	hasSel   bool
}

// LoadedDice holds one reservoir selector per bank and mitigates on RFM.
// It is purely proactive: no ALERTs, no table state beyond one row id and
// one activation count per bank.
type LoadedDice struct {
	cfg   LoadedDiceConfig
	sink  track.Sink
	banks []diceBank
	Stats track.Stats
}

var (
	_ track.Mitigator     = (*LoadedDice)(nil)
	_ track.StatsSource   = (*LoadedDice)(nil)
	_ track.StateInjector = (*LoadedDice)(nil)
)

// NewLoadedDice builds the Loaded Dice baseline.
func NewLoadedDice(cfg LoadedDiceConfig, sink track.Sink) (*LoadedDice, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("loaded-dice: window must be >= 1, got %d", cfg.Window)
	}
	if sink == nil {
		sink = track.NopSink{}
	}
	root := stats.NewRNG(cfg.Seed ^ 0x44494345) // "DICE"
	d := &LoadedDice{cfg: cfg, sink: sink}
	d.banks = make([]diceBank, cfg.Geometry.BanksPerSubChannel)
	for i := range d.banks {
		d.banks[i].rng = root.Split()
	}
	return d, nil
}

// Name implements track.Mitigator.
func (d *LoadedDice) Name() string { return fmt.Sprintf("LoadedDice-%d", d.cfg.Window) }

// OnActivate implements track.Mitigator: reservoir capture with
// probability 1/k for the k-th ACT since the last opportunity.
func (d *LoadedDice) OnActivate(bank, row int, now dram.Time) {
	d.Stats.ACTs++
	b := &d.banks[bank]
	if b.acts < 0 {
		b.acts = 0 // recover silently from injected-fault corruption
	}
	b.acts++
	if b.rng.Intn(b.acts) == 0 {
		b.selected = row
		b.hasSel = true
		d.Stats.Insertions++
	}
}

// WantsALERT implements track.Mitigator; Loaded Dice is purely proactive.
func (d *LoadedDice) WantsALERT() bool { return false }

// OnREF implements track.Mitigator; no refresh-synchronized state.
func (d *LoadedDice) OnREF(refIndex int, now dram.Time) {}

// OnRFM implements track.Mitigator: the RFM is the mitigation opportunity.
func (d *LoadedDice) OnRFM(bank int, now dram.Time) {
	d.Stats.RFMs++
	d.take(bank, now)
}

// ServiceALERT implements track.Mitigator; never requested, but honored for
// robustness like the other proactive designs.
func (d *LoadedDice) ServiceALERT(now dram.Time) {
	for bank := range d.banks {
		d.take(bank, now)
	}
}

func (d *LoadedDice) take(bank int, now dram.Time) {
	b := &d.banks[bank]
	if !b.hasSel {
		return
	}
	row := b.selected
	b.hasSel = false
	b.acts = 0
	d.Stats.Mitigations++
	d.sink.RowMitigated(bank, row, track.MitigationVictims, now)
}

// TrackStats implements track.StatsSource.
func (d *LoadedDice) TrackStats() track.Stats { return d.Stats }

// InjectStateFault implements track.StateInjector: one bit of a random
// bank's activation count or captured row id flips.
func (d *LoadedDice) InjectStateFault(rng *stats.RNG) string {
	bank := rng.Intn(len(d.banks))
	b := &d.banks[bank]
	if rng.Intn(2) == 0 {
		bit := rng.Intn(11)
		b.acts ^= 1 << bit
		return fmt.Sprintf("loaded-dice[bank=%d].acts bit %d", bank, bit)
	}
	bit := rng.Intn(17)
	b.selected ^= 1 << bit
	if b.selected >= d.cfg.Geometry.RowsPerBank || b.selected < 0 {
		b.selected &= d.cfg.Geometry.RowsPerBank - 1
	}
	return fmt.Sprintf("loaded-dice[bank=%d].selected bit %d", bank, bit)
}

func init() {
	track.Register(track.Descriptor{
		Name: "loaded-dice",
		Doc:  "Loaded Dice reservoir selector: non-selection-free probabilistic mitigation on RFM",
		ConfigSchema: []track.ParamSpec{
			{Key: "window", Kind: track.IntParam, Doc: "RFM cadence W = RFM BAT (default WindowForTRHD(TRHD))"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			w := security.DefaultMINTModel().WindowForTRHD(cfg.TRHD)
			return track.Params{"window": itoa(w)}, nil
		},
		Resolve: func(cfg track.Config) (track.Policy, error) {
			w := cfg.Params.Int("window")
			return track.Policy{
				New: func(sub int, sink track.Sink) (track.Mitigator, error) {
					return NewLoadedDice(LoadedDiceConfig{
						Geometry: cfg.Geometry,
						Mapping:  cfg.Mapping,
						Window:   w,
						Seed:     cfg.Seed + uint64(sub)*31,
					}, sink)
				},
				RFMBAT: w,
				// Selection is uniform over the at-most-W ACTs between
				// RFMs, so the per-ACT selection probability is >= MINT's
				// 1/W and the MINT analytic bound applies.
				Bound: mintBound(w, " (non-selection-free)"),
			}, nil
		},
	})
}
