package policies

import (
	"fmt"

	"mirza/internal/core"
	"mirza/internal/security"
	"mirza/internal/track"
)

// mirzaSchema documents the MIRZA tunables shared by the mirza and
// naive-mirza registrations. Defaults come from core.ForTRHD (Table VII).
var mirzaSchema = []track.ParamSpec{
	{Key: "fth", Kind: track.IntParam, Doc: "Filtering Threshold (RCT counts <= FTH are filtered)"},
	{Key: "window", Kind: track.IntParam, Doc: "MINT window W over escaping activations"},
	{Key: "regions", Kind: track.IntParam, Doc: "RCT regions per bank"},
	{Key: "queue", Kind: track.IntParam, Doc: "MIRZA-Q entries per bank (default 4)"},
	{Key: "qth", Kind: track.IntParam, Doc: "queue tardiness threshold (default 16)"},
	{Key: "reset", Kind: track.StringParam, Doc: "RCT reset policy: safe | eager | lazy (default safe)"},
}

func mirzaDefaults(cfg track.Config, naive bool) (track.Params, error) {
	c, err := core.ForTRHD(cfg.TRHD)
	if err != nil {
		return nil, err
	}
	if naive {
		c.FTH = 0 // no coarse-grained filtering: every ACT reaches the sampler
	}
	return track.Params{
		"fth":     itoa(c.FTH),
		"window":  itoa(c.MINTWindow),
		"regions": itoa(c.Regions),
		"queue":   itoa(c.QueueSize),
		"qth":     itoa(c.QTH),
		"reset":   c.ResetPolicy.String(),
	}, nil
}

// mirzaConfig assembles and validates a core.Config from the merged
// parameter bag, seeded for sub-channel 0.
func mirzaConfig(cfg track.Config) (core.Config, error) {
	c := core.Config{
		Geometry:   cfg.Geometry,
		Mapping:    cfg.Mapping,
		Seed:       cfg.Seed,
		TargetTRHD: cfg.TRHD,
		FTH:        cfg.Params.Int("fth"),
		MINTWindow: cfg.Params.Int("window"),
		Regions:    cfg.Params.Int("regions"),
		QueueSize:  cfg.Params.Int("queue"),
		QTH:        cfg.Params.Int("qth"),
	}
	switch reset := cfg.Params.Str("reset"); reset {
	case "safe":
		c.ResetPolicy = core.SafeReset
	case "eager":
		c.ResetPolicy = core.EagerReset
	case "lazy":
		c.ResetPolicy = core.LazyReset
	default:
		return core.Config{}, fmt.Errorf("param %q: %q is not one of safe, eager, lazy", "reset", reset)
	}
	if err := c.Validate(); err != nil {
		return core.Config{}, err
	}
	return c, nil
}

func registerMirza(name, doc string, naive bool) {
	track.Register(track.Descriptor{
		Name:         name,
		Doc:          doc,
		ConfigSchema: mirzaSchema,
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return mirzaDefaults(cfg, naive)
		},
		Resolve: func(cfg track.Config) (track.Policy, error) {
			c, err := mirzaConfig(cfg)
			if err != nil {
				return track.Policy{}, err
			}
			return track.Policy{
				New: func(sub int, sink track.Sink) (track.Mitigator, error) {
					c := c
					c.Seed += uint64(sub)
					return core.New(c, sink)
				},
				Bound: track.Bound{
					TRHD: security.SafeTRHD(c, security.DefaultMINTModel()),
					Kind: "SafeTRHD",
				},
			}, nil
		},
	})
}

func init() {
	registerMirza("mirza", "MIRZA: RCT coarse-grained filtering + MINT sampling + MIRZA-Q + ALERT back-off", false)
	registerMirza("naive-mirza", "MIRZA without coarse-grained filtering (FTH=0): sampler sees every ACT", true)
}
