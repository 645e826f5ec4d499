package track

import (
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/stats"
)

// MoPACConfig configures the MoPAC-style probabilistic PRAC baseline.
type MoPACConfig struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	// SampleProb is the probability an activation updates its row's
	// counter (MoPAC's p; each sampled update adds 1/p to keep the
	// estimate unbiased).
	SampleProb float64
	// AlertThreshold is the estimated count that raises ALERT. Because
	// counting is probabilistic, the threshold must be derated from the
	// deterministic ATH by a sampling-slack margin.
	AlertThreshold int
	Seed           uint64
}

// MoPAC models MoPAC (ISCA'25), the related-work design that reduces PRAC's
// timing overhead by updating per-row counters probabilistically: only a
// p-fraction of activations pay the counter-update (so tRC/tRP stay near
// baseline), and each sampled update increments by 1/p. The price is
// sampling noise: the ALERT threshold must be derated, and the DRAM-array
// counter area remains (Section X). It is included as an extension
// baseline for the design-space ablations.
//
// MoPAC sits on the same ALERT-Back-Off core as PRAC but is not a
// StateInjector: fault plans draw no counter flips for it.
type MoPAC struct {
	abo
	cfg MoPACConfig
	rng *stats.RNG
	inc int
}

var _ Mitigator = (*MoPAC)(nil)

// MoPACDeratedATH returns an ALERT threshold for a target TRHD under
// sampling probability p: the deterministic budget shrunk by a
// concentration margin of ~4 standard deviations of the binomial estimate.
func MoPACDeratedATH(trhd int, p float64) int {
	base := ATHForTRHD(trhd)
	if p <= 0 || p >= 1 {
		return base
	}
	// Var of the estimate after n true ACTs is n(1-p)/p; at n=base the
	// standard deviation in counted units is sqrt(base*(1-p)/p).
	slack := 4 * sqrtf(float64(base)*(1-p)/p)
	ath := base - int(slack)
	if ath < 1 {
		ath = 1
	}
	return ath
}

func sqrtf(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

// NewMoPAC builds the MoPAC baseline.
func NewMoPAC(cfg MoPACConfig, sink Sink) *MoPAC {
	if cfg.SampleProb <= 0 || cfg.SampleProb > 1 {
		panic(fmt.Sprintf("track: MoPAC sample probability %v out of (0,1]", cfg.SampleProb))
	}
	inc := MoPACIncrement(cfg.SampleProb)
	if cfg.AlertThreshold < 1 || cfg.AlertThreshold+inc-1 > MaxRowCount {
		panic(fmt.Sprintf("track: MoPAC alert threshold %d plus increment %d - 1 must be in [1, %d]",
			cfg.AlertThreshold, inc, MaxRowCount))
	}
	return &MoPAC{
		abo: newABO(cfg.Geometry, cfg.Mapping, cfg.AlertThreshold, sink),
		cfg: cfg,
		rng: stats.NewRNG(cfg.Seed ^ 0x4d6f504143),
		inc: inc,
	}
}

// MoPACIncrement is the amount a sampled update adds to a row's counter at
// sample probability p: 1/p rounded, so the estimate stays unbiased. A
// counter below the ALERT threshold ath grows to at most ath+inc-1, which
// must fit in MaxRowCount.
func MoPACIncrement(p float64) int { return int(1/p + 0.5) }

// Name implements Mitigator.
func (m *MoPAC) Name() string {
	return fmt.Sprintf("MoPAC(p=%.3f,ATH=%d)", m.cfg.SampleProb, m.cfg.AlertThreshold)
}

// OnActivate implements Mitigator.
func (m *MoPAC) OnActivate(bank, row int, now dram.Time) {
	m.Stats.ACTs++
	if m.rng.Float64() >= m.cfg.SampleProb {
		return
	}
	m.bump(m.rows.Counter(bank, row), bank, row, m.inc)
}
