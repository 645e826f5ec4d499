package policies

// Oracle is the perfect-knowledge upper bound (the OracleRH idea from
// Ramulator2, SNIPPETS.md snippet 2): it keeps an exact activation counter
// for every row and mitigates an aggressor inline the moment it reaches
// TRHD/2 — the latest moment any defense may act while still keeping every
// double-sided victim under TRHD. It issues no ALERTs, needs no RFMs, and
// performs the minimum possible number of mitigations, so its slowdown is
// the floor every realistic tracker is compared against.

import (
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// OracleConfig configures the oracle upper bound.
type OracleConfig struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	// Threshold is the exact per-row count at which the aggressor is
	// mitigated (TRHD/2 for double-sided safety).
	Threshold int
}

// Oracle tracks every row of every bank exactly.
type Oracle struct {
	cfg   OracleConfig
	sink  track.Sink
	rows  track.RowCounters
	Stats track.Stats
}

var (
	_ track.Mitigator     = (*Oracle)(nil)
	_ track.StatsSource   = (*Oracle)(nil)
	_ track.StateInjector = (*Oracle)(nil)
)

// NewOracle builds the oracle upper bound.
func NewOracle(cfg OracleConfig, sink track.Sink) (*Oracle, error) {
	if cfg.Threshold < 1 || cfg.Threshold > track.MaxRowCount {
		return nil, fmt.Errorf("oracle: threshold must be in [1, %d], got %d", track.MaxRowCount, cfg.Threshold)
	}
	if sink == nil {
		sink = track.NopSink{}
	}
	return &Oracle{cfg: cfg, sink: sink, rows: track.NewRowCounters(cfg.Geometry, cfg.Mapping)}, nil
}

// Name implements track.Mitigator.
func (o *Oracle) Name() string { return fmt.Sprintf("Oracle(T=%d)", o.cfg.Threshold) }

// OnActivate implements track.Mitigator: exact counting, inline mitigation
// at the threshold.
func (o *Oracle) OnActivate(bank, row int, now dram.Time) {
	o.Stats.ACTs++
	c := o.rows.Counter(bank, row)
	*c++
	if int(*c) >= o.cfg.Threshold {
		*c = 0
		o.Stats.Mitigations++
		o.sink.RowMitigated(bank, row, track.MitigationVictims, now)
	}
}

// WantsALERT implements track.Mitigator; the oracle never stalls the bus.
func (o *Oracle) WantsALERT() bool { return false }

// OnREF implements track.Mitigator: a demand refresh resets the disturbance
// of the refreshed rows, so their counters clear (same bookkeeping as PRAC).
func (o *Oracle) OnREF(refIndex int, now dram.Time) { o.rows.Refresh(refIndex, nil) }

// OnRFM implements track.Mitigator; the oracle does not need RFM.
func (o *Oracle) OnRFM(bank int, now dram.Time) { o.Stats.RFMs++ }

// ServiceALERT implements track.Mitigator; never requested.
func (o *Oracle) ServiceALERT(now dram.Time) {}

// TrackStats implements track.StatsSource.
func (o *Oracle) TrackStats() track.Stats { return o.Stats }

// InjectStateFault implements track.StateInjector: one bit of one exact
// counter flips (the oracle's "SRAM" is the full counter array).
func (o *Oracle) InjectStateFault(rng *stats.RNG) string {
	bank, row, bit := o.rows.Flip(rng, 16)
	return fmt.Sprintf("oracle[bank=%d].counter[row=%d] bit %d", bank, row, bit)
}

func init() {
	track.Register(track.Descriptor{
		Name: "oracle",
		Doc:  "oracle upper bound: exact per-row counters, inline mitigation at TRHD/2",
		ConfigSchema: []track.ParamSpec{
			{Key: "threshold", Kind: track.IntParam, Doc: "mitigate a row at this exact count (default TRHD/2)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"threshold": itoa(cfg.TRHD / 2)}, nil
		},
		Resolve: func(cfg track.Config) (track.Policy, error) {
			t := cfg.Params.Int("threshold")
			return track.Policy{
				New: func(sub int, sink track.Sink) (track.Mitigator, error) {
					return NewOracle(OracleConfig{
						Geometry:  cfg.Geometry,
						Mapping:   cfg.Mapping,
						Threshold: t,
					}, sink)
				},
				// Both aggressors of a double-sided pair are mitigated at
				// exactly T, so a victim never accrues 2T.
				Bound: track.Bound{TRHD: 2 * t, Kind: fmt.Sprintf("oracle guarantee 2T (T=%d)", t)},
			}, nil
		},
	})
}
