// Package policies registers every mitigation policy in the repository with
// the track registry. Consumers that resolve defenses by name (the CLIs,
// the experiment grids, serve admission, the conformance harness)
// blank-import this package; internal/track itself stays free of policy
// wiring so implementations may depend on internal/core and
// internal/security without import cycles.
//
// Each registration is the single source of truth for that policy's Table-I
// provisioning: default parameters, the DRAM timing it requires, the RFM
// Bank Activation Threshold the memory controller must honor, and the
// analytic security bound the attack sweep checks against.
package policies

import (
	"fmt"
	"sort"

	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/track"
)

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func init() {
	track.Register(track.Descriptor{
		Name:     "none",
		Doc:      "no mitigation (unprotected baseline)",
		Insecure: true,
		Resolve: func(cfg track.Config) (track.Policy, error) {
			return track.Policy{
				New:   func(int, track.Sink) (track.Mitigator, error) { return track.NewNop(), nil },
				Bound: track.Bound{TRHD: cfg.TRHD, Kind: "nominal TRHD (unprotected)"},
			}, nil
		},
	})

	track.Register(track.Descriptor{
		Name: "prac",
		Doc:  "PRAC per-row activation counters + ALERT back-off at ATH (MOAT-style)",
		ConfigSchema: []track.ParamSpec{
			{Key: "ath", Kind: track.IntParam, Doc: "ALERT threshold (default ATHForTRHD(TRHD) = TRHD/2 - 8)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"ath": itoa(track.ATHForTRHD(cfg.TRHD))}, nil
		},
		Resolve: func(cfg track.Config) (track.Policy, error) {
			ath := cfg.Params.Int("ath")
			if ath < 1 || ath > track.MaxRowCount {
				return track.Policy{}, fmt.Errorf("ath must be in [1, %d] (16-bit counters), got %d", track.MaxRowCount, ath)
			}
			bound := track.Bound{TRHD: cfg.TRHD, Kind: "provisioned TRHD (deterministic ATH+ABO)"}
			if ath > track.ATHForTRHD(cfg.TRHD) {
				// A raised ATH tolerates only the TRHD it provisions: each
				// aggressor of a double-sided pair reaches ATH plus the ABO
				// slack before it is mitigated.
				bound = track.Bound{
					TRHD: 2 * (ath + track.ABOSlack),
					Kind: fmt.Sprintf("2*(ATH+%d) at ATH=%d (deterministic ATH+ABO)", track.ABOSlack, ath),
				}
			}
			return track.Policy{
				New: func(sub int, sink track.Sink) (track.Mitigator, error) {
					return track.NewPRAC(track.PRACConfig{
						Geometry:       cfg.Geometry,
						Mapping:        cfg.Mapping,
						AlertThreshold: ath,
					}, sink), nil
				},
				// PRAC-enabled parts pay the longer tRC of the counter update.
				Timing: dram.PRAC(),
				Bound:  bound,
			}, nil
		},
	})

	track.Register(track.Descriptor{
		Name: "mint-rfm",
		Doc:  "proactive MINT sampler, mitigating on MC RFMs issued every W ACTs per bank",
		ConfigSchema: []track.ParamSpec{
			{Key: "window", Kind: track.IntParam, Doc: "MINT window W = RFM BAT (default WindowForTRHD(TRHD))"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			w := security.DefaultMINTModel().WindowForTRHD(cfg.TRHD)
			return track.Params{"window": itoa(w)}, nil
		},
		Resolve: func(cfg track.Config) (track.Policy, error) {
			w := cfg.Params.Int("window")
			if w < 1 {
				return track.Policy{}, fmt.Errorf("window must be >= 1, got %d", w)
			}
			return track.Policy{
				New: func(sub int, sink track.Sink) (track.Mitigator, error) {
					return track.NewMINT(track.MINTConfig{
						Geometry:      cfg.Geometry,
						Mapping:       cfg.Mapping,
						Window:        w,
						MitigateOnRFM: true,
						Seed:          cfg.Seed + uint64(sub)*31,
					}, sink), nil
				},
				RFMBAT: w,
				Bound:  mintBound(w, ""),
			}, nil
		},
	})

	track.Register(track.Descriptor{
		Name: "mint-ref",
		Doc:  "proactive MINT sampler, mitigating under every k-th REF command",
		ConfigSchema: []track.ParamSpec{
			{Key: "window", Kind: track.IntParam, Doc: "MINT window W (default: max ACTs between mitigations at every=1)"},
			{Key: "every", Kind: track.IntParam, Doc: "mitigate at every k-th REF (default 1)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{
				"window": itoa(security.WindowPerREFs(dram.DDR5(), 1)),
				"every":  "1",
			}, nil
		},
		Resolve: func(cfg track.Config) (track.Policy, error) {
			w, every := cfg.Params.Int("window"), cfg.Params.Int("every")
			if w < 1 || every < 1 {
				return track.Policy{}, fmt.Errorf("window and every must be >= 1, got window=%d every=%d", w, every)
			}
			return track.Policy{
				New: func(sub int, sink track.Sink) (track.Mitigator, error) {
					return track.NewMINT(track.MINTConfig{
						Geometry:          cfg.Geometry,
						Mapping:           cfg.Mapping,
						Window:            w,
						MitigateEveryREFs: every,
						Seed:              cfg.Seed + uint64(sub)*31,
					}, sink), nil
				},
				Bound: mintBound(w, ""),
			}, nil
		},
	})

	track.Register(track.Descriptor{
		Name:     "trr",
		Doc:      "sampled TRR-style counter table, mitigating under REF (no security guarantee)",
		Insecure: true,
		ConfigSchema: []track.ParamSpec{
			{Key: "entries", Kind: track.IntParam, Doc: "tracker table entries per bank (default 28)"},
			{Key: "every", Kind: track.IntParam, Doc: "mitigate at every k-th REF (default 4)"},
			{Key: "sample", Kind: track.IntParam, Doc: "observe every k-th ACT only (default 16)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"entries": "28", "every": "4", "sample": "16"}, nil
		},
		Resolve: func(cfg track.Config) (track.Policy, error) {
			entries, every, sample := cfg.Params.Int("entries"), cfg.Params.Int("every"), cfg.Params.Int("sample")
			if entries < 1 || every < 1 || sample < 1 {
				return track.Policy{}, fmt.Errorf("entries, every and sample must be >= 1, got %d/%d/%d", entries, every, sample)
			}
			return track.Policy{
				New: func(sub int, sink track.Sink) (track.Mitigator, error) {
					return track.NewTRR(track.TRRConfig{
						Geometry:          cfg.Geometry,
						Mapping:           cfg.Mapping,
						Entries:           entries,
						MitigateEveryREFs: every,
						SampleEvery:       sample,
					}, sink), nil
				},
				Bound: track.Bound{TRHD: cfg.TRHD, Kind: "nominal TRHD (TRR has no guarantee)"},
			}, nil
		},
	})

	track.Register(track.Descriptor{
		Name: "mithril",
		Doc:  "Mithril-style Space-Saving counter tracker, mitigating under REF",
		ConfigSchema: []track.ParamSpec{
			{Key: "entries", Kind: track.IntParam, Doc: "Space-Saving entries per bank (default 2048)"},
			{Key: "every", Kind: track.IntParam, Doc: "mitigate at every k-th REF (default 1)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"entries": "2048", "every": "1"}, nil
		},
		Resolve: func(cfg track.Config) (track.Policy, error) {
			entries, every := cfg.Params.Int("entries"), cfg.Params.Int("every")
			if entries < 1 || every < 1 {
				return track.Policy{}, fmt.Errorf("entries and every must be >= 1, got %d/%d", entries, every)
			}
			w := security.WindowPerREFs(dram.DDR5(), every)
			return track.Policy{
				New: func(sub int, sink track.Sink) (track.Mitigator, error) {
					return track.NewMithril(track.MithrilConfig{
						Geometry:          cfg.Geometry,
						Mapping:           cfg.Mapping,
						Entries:           entries,
						MitigateEveryREFs: every,
					}, sink), nil
				},
				Bound: track.Bound{
					TRHD: security.DefaultMithrilModel().ToleratedTRHD(w),
					Kind: fmt.Sprintf("Mithril analytic tolerated TRHD at W=%d", w),
				},
			}, nil
		},
	})

	track.Register(track.Descriptor{
		Name: "mopac",
		Doc:  "MoPAC probabilistic PRAC counting with 4-sigma derated ATH",
		ConfigSchema: []track.ParamSpec{
			{Key: "p", Kind: track.FloatParam, Doc: "per-ACT counter-update sample probability in (0,1] (default 0.1)"},
			{Key: "ath", Kind: track.IntParam, Doc: "ALERT threshold; 0 derives MoPACDeratedATH(TRHD, p) (default 0)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"p": "0.1", "ath": "0"}, nil
		},
		Resolve: func(cfg track.Config) (track.Policy, error) {
			p, ath := cfg.Params.Float("p"), cfg.Params.Int("ath")
			if p <= 0 || p > 1 {
				return track.Policy{}, fmt.Errorf("p must be in (0,1], got %v", p)
			}
			derated := track.MoPACDeratedATH(cfg.TRHD, p)
			if ath == 0 {
				ath = derated
			}
			if ath < 1 {
				return track.Policy{}, fmt.Errorf("ath must be >= 1, got %d", ath)
			}
			if inc := track.MoPACIncrement(p); ath+inc-1 > track.MaxRowCount {
				return track.Policy{}, fmt.Errorf("ath + round(1/p) - 1 = %d exceeds %d (16-bit counters)", ath+inc-1, track.MaxRowCount)
			}
			bound := track.Bound{TRHD: cfg.TRHD, Kind: "provisioned TRHD (probabilistic, 4-sigma derated ATH)"}
			if ath > derated {
				// A raised ATH tolerates only the smallest TRHD whose
				// derated ATH reaches it; the derated ATH grows with the
				// TRHD.
				hi := max(cfg.TRHD, 1)
				for track.MoPACDeratedATH(hi, p) < ath {
					hi *= 2
				}
				bound = track.Bound{
					TRHD: cfg.TRHD + 1 + sort.Search(hi-cfg.TRHD, func(i int) bool {
						return track.MoPACDeratedATH(cfg.TRHD+1+i, p) >= ath
					}),
					Kind: fmt.Sprintf("smallest TRHD whose derated ATH reaches ATH=%d (probabilistic, 4-sigma)", ath),
				}
			}
			return track.Policy{
				New: func(sub int, sink track.Sink) (track.Mitigator, error) {
					return track.NewMoPAC(track.MoPACConfig{
						Geometry:       cfg.Geometry,
						Mapping:        cfg.Mapping,
						SampleProb:     p,
						AlertThreshold: ath,
						Seed:           cfg.Seed + uint64(sub)*31,
					}, sink), nil
				},
				Timing: dram.PRAC(),
				Bound:  bound,
			}, nil
		},
	})
}

// mintBound is MINT's analytic tolerated TRHD at window w, the bound of
// every policy that selects at least one of each w ACTs uniformly; note
// qualifies the kind.
func mintBound(w int, note string) track.Bound {
	return track.Bound{
		TRHD: security.DefaultMINTModel().ToleratedTRHD(w),
		Kind: fmt.Sprintf("MINT analytic tolerated TRHD at W=%d%s", w, note),
	}
}
