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
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			return track.NewNop(), nil
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			return track.Bound{TRHD: cfg.TRHD, Kind: "nominal TRHD (unprotected)"}, nil
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
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			ath, err := cfg.Params.Int("ath")
			if err != nil {
				return nil, err
			}
			if ath < 1 || ath > track.MaxRowCount {
				return nil, fmt.Errorf("ath must be in [1, %d] (16-bit counters), got %d", track.MaxRowCount, ath)
			}
			return track.NewPRAC(track.PRACConfig{
				Geometry:       cfg.Geometry,
				Mapping:        cfg.Mapping,
				AlertThreshold: ath,
			}, sink), nil
		},
		// PRAC-enabled parts pay the longer tRC of the counter update.
		Timing: func(cfg track.Config) dram.Timing { return dram.PRAC() },
		Bound: func(cfg track.Config) (track.Bound, error) {
			ath, err := cfg.Params.Int("ath")
			if err != nil {
				return track.Bound{}, err
			}
			if ath <= track.ATHForTRHD(cfg.TRHD) {
				return track.Bound{TRHD: cfg.TRHD, Kind: "provisioned TRHD (deterministic ATH+ABO)"}, nil
			}
			// A raised ATH tolerates only the TRHD it provisions: each
			// aggressor of a double-sided pair reaches ATH plus the ABO
			// slack before it is mitigated.
			return track.Bound{
				TRHD: 2 * (ath + track.ABOSlack),
				Kind: fmt.Sprintf("2*(ATH+%d) at ATH=%d (deterministic ATH+ABO)", track.ABOSlack, ath),
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
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			w, err := cfg.Params.Int("window")
			if err != nil {
				return nil, err
			}
			if w < 1 {
				return nil, fmt.Errorf("window must be >= 1, got %d", w)
			}
			return track.NewMINT(track.MINTConfig{
				Geometry:      cfg.Geometry,
				Mapping:       cfg.Mapping,
				Window:        w,
				MitigateOnRFM: true,
				Seed:          cfg.Seed + uint64(cfg.Sub)*31,
			}, sink), nil
		},
		RFMBAT: func(cfg track.Config) (int, error) {
			return cfg.Params.Int("window")
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			w, err := cfg.Params.Int("window")
			if err != nil {
				return track.Bound{}, err
			}
			return track.Bound{
				TRHD: security.DefaultMINTModel().ToleratedTRHD(w),
				Kind: fmt.Sprintf("MINT analytic tolerated TRHD at W=%d", w),
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
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			w, err := cfg.Params.Int("window")
			if err != nil {
				return nil, err
			}
			every, err := cfg.Params.Int("every")
			if err != nil {
				return nil, err
			}
			if w < 1 || every < 1 {
				return nil, fmt.Errorf("window and every must be >= 1, got window=%d every=%d", w, every)
			}
			return track.NewMINT(track.MINTConfig{
				Geometry:          cfg.Geometry,
				Mapping:           cfg.Mapping,
				Window:            w,
				MitigateEveryREFs: every,
				Seed:              cfg.Seed + uint64(cfg.Sub)*31,
			}, sink), nil
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			w, err := cfg.Params.Int("window")
			if err != nil {
				return track.Bound{}, err
			}
			return track.Bound{
				TRHD: security.DefaultMINTModel().ToleratedTRHD(w),
				Kind: fmt.Sprintf("MINT analytic tolerated TRHD at W=%d", w),
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
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			entries, err := cfg.Params.Int("entries")
			if err != nil {
				return nil, err
			}
			every, err := cfg.Params.Int("every")
			if err != nil {
				return nil, err
			}
			sample, err := cfg.Params.Int("sample")
			if err != nil {
				return nil, err
			}
			if entries < 1 || every < 1 || sample < 1 {
				return nil, fmt.Errorf("entries, every and sample must be >= 1, got %d/%d/%d", entries, every, sample)
			}
			return track.NewTRR(track.TRRConfig{
				Geometry:          cfg.Geometry,
				Mapping:           cfg.Mapping,
				Entries:           entries,
				MitigateEveryREFs: every,
				SampleEvery:       sample,
			}, sink), nil
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			return track.Bound{TRHD: cfg.TRHD, Kind: "nominal TRHD (TRR has no guarantee)"}, nil
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
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			entries, err := cfg.Params.Int("entries")
			if err != nil {
				return nil, err
			}
			every, err := cfg.Params.Int("every")
			if err != nil {
				return nil, err
			}
			if entries < 1 || every < 1 {
				return nil, fmt.Errorf("entries and every must be >= 1, got %d/%d", entries, every)
			}
			return track.NewMithril(track.MithrilConfig{
				Geometry:          cfg.Geometry,
				Mapping:           cfg.Mapping,
				Entries:           entries,
				MitigateEveryREFs: every,
			}, sink), nil
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			every, err := cfg.Params.Int("every")
			if err != nil {
				return track.Bound{}, err
			}
			w := security.WindowPerREFs(dram.DDR5(), every)
			return track.Bound{
				TRHD: security.DefaultMithrilModel().ToleratedTRHD(w),
				Kind: fmt.Sprintf("Mithril analytic tolerated TRHD at W=%d", w),
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
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			p, err := cfg.Params.Float("p")
			if err != nil {
				return nil, err
			}
			ath, err := cfg.Params.Int("ath")
			if err != nil {
				return nil, err
			}
			if p <= 0 || p > 1 {
				return nil, fmt.Errorf("p must be in (0,1], got %v", p)
			}
			if ath == 0 {
				ath = track.MoPACDeratedATH(cfg.TRHD, p)
			}
			if ath < 1 {
				return nil, fmt.Errorf("ath must be >= 1, got %d", ath)
			}
			if inc := track.MoPACIncrement(p); ath+inc-1 > track.MaxRowCount {
				return nil, fmt.Errorf("ath + round(1/p) - 1 = %d exceeds %d (16-bit counters)", ath+inc-1, track.MaxRowCount)
			}
			return track.NewMoPAC(track.MoPACConfig{
				Geometry:       cfg.Geometry,
				Mapping:        cfg.Mapping,
				SampleProb:     p,
				AlertThreshold: ath,
				Seed:           cfg.Seed + uint64(cfg.Sub)*31,
			}, sink), nil
		},
		Timing: func(cfg track.Config) dram.Timing { return dram.PRAC() },
		Bound: func(cfg track.Config) (track.Bound, error) {
			p, err := cfg.Params.Float("p")
			if err != nil {
				return track.Bound{}, err
			}
			ath, err := cfg.Params.Int("ath")
			if err != nil {
				return track.Bound{}, err
			}
			if ath <= track.MoPACDeratedATH(cfg.TRHD, p) {
				return track.Bound{TRHD: cfg.TRHD, Kind: "provisioned TRHD (probabilistic, 4-sigma derated ATH)"}, nil
			}
			// A raised ATH tolerates only the smallest TRHD whose derated
			// ATH reaches it; the derated ATH grows with the TRHD.
			hi := max(cfg.TRHD, 1)
			for track.MoPACDeratedATH(hi, p) < ath {
				hi *= 2
			}
			trhd := cfg.TRHD + 1 + sort.Search(hi-cfg.TRHD, func(i int) bool {
				return track.MoPACDeratedATH(cfg.TRHD+1+i, p) >= ath
			})
			return track.Bound{
				TRHD: trhd,
				Kind: fmt.Sprintf("smallest TRHD whose derated ATH reaches ATH=%d (probabilistic, 4-sigma)", ath),
			}, nil
		},
	})
}
