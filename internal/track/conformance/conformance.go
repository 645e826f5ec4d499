// Package conformance runs every registered mitigation policy through a
// common battery of behavioural checks: the bank-level attack-pattern
// security sweep, fault-injection robustness (no panics, deterministic
// replay), telemetry-counter sanity against a counting sink, parameter
// robustness (boundary overrides of every schema key build or fail with an
// error, never panic), and a short audited full-system run under the DDR5
// protocol auditor.
//
// The harness is what makes the registry's one-file-defense promise safe:
// a new policy registered in internal/track/policies is automatically
// swept by `make conformance` (and CI) with zero per-policy test code.
// Policies whose descriptor is marked Insecure (trr, none) still run every
// check but are exempt from the security-bound verdict.
package conformance

import (
	"context"
	"fmt"

	"mirza/internal/attack"
	"mirza/internal/dram"
	"mirza/internal/experiments"
	"mirza/internal/fault"
	"mirza/internal/telemetry"
	"mirza/internal/trace"
	"mirza/internal/track"
)

// Options tunes the sweep's cost. The zero value selects the full battery:
// TRHD 1000, seed 1, 2 refresh windows per attack pattern, all patterns,
// audit included.
type Options struct {
	TRHD      int      // configured threshold (default 1000)
	Seed      uint64   // base seed (default 1)
	Windows   int      // refresh windows per attack pattern (default 2)
	Patterns  []string // subset of Patterns() to run (default: all)
	SkipAudit bool     // skip the audited full-system run (short mode)
}

func (o Options) normalized() Options {
	if o.TRHD == 0 {
		o.TRHD = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Windows == 0 {
		o.Windows = 2
	}
	if len(o.Patterns) == 0 {
		o.Patterns = Patterns()
	}
	return o
}

// Violation records one conformance failure.
type Violation struct {
	Policy string // registered policy name
	Check  string // "build" | "security" | "faults" | "stats" | "params" | "audit"
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s]: %s", v.Policy, v.Check, v.Detail)
}

// Patterns lists the attack patterns of the security sweep.
func Patterns() []string { return []string{"single-sided", "double-sided", "circular"} }

func patternFor(name string, g dram.Geometry, m dram.R2SAMapping) (attack.Pattern, error) {
	switch name {
	case "single-sided":
		return attack.SingleSided(g, m, 3, 500), nil
	case "double-sided":
		return attack.DoubleSided(g, m, 3, 500), nil
	case "circular":
		return attack.Circular(g, m, 3, 32), nil
	}
	return nil, fmt.Errorf("conformance: unknown pattern %q", name)
}

// CheckAll sweeps every registered policy and returns the violations,
// grouped by registration order.
func CheckAll(opt Options) []Violation {
	var out []Violation
	for _, name := range track.Names() {
		out = append(out, Check(name, opt)...)
	}
	return out
}

// Check runs the full battery against one policy.
func Check(policy string, opt Options) []Violation {
	opt = opt.normalized()
	env := track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     opt.TRHD,
		Seed:     opt.Seed,
	}
	b, err := track.Build(policy, nil, env)
	if err != nil {
		return []Violation{{Policy: policy, Check: "build", Detail: err.Error()}}
	}

	var out []Violation
	out = append(out, checkSecurity(b, opt)...)
	out = append(out, checkFaults(b, opt)...)
	out = append(out, checkStats(b, opt)...)
	out = append(out, checkParams(b, env)...)
	if !opt.SkipAudit {
		out = append(out, checkAudit(b, opt)...)
	}
	return out
}

// guard converts a panic in a check into a violation instead of killing
// the whole sweep.
func guard(policy, check string, out *[]Violation, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			*out = append(*out, Violation{
				Policy: policy, Check: check,
				Detail: fmt.Sprintf("panic: %v", r),
			})
		}
	}()
	fn()
}

// checkSecurity drives the bank-level attack simulator with each pattern
// at full DRAM speed (REF, ABO and the policy's RFM cadence all modelled)
// and asserts the maximum double-sided exposure stays below the policy's
// declared bound. Insecure policies run the sweep — they must still not
// panic — but skip the verdict.
func checkSecurity(b *track.Built, opt Options) (out []Violation) {
	bound := b.Bound()
	for _, pname := range opt.Patterns {
		pname := pname
		guard(b.Name(), "security", &out, func() {
			pat, err := patternFor(pname, dram.Default(), dram.StridedR2SA)
			if err != nil {
				out = append(out, Violation{Policy: b.Name(), Check: "security", Detail: err.Error()})
				return
			}
			sim := attack.NewBankSim(attack.BankSimConfig{
				Geometry: dram.Default(), Timing: b.Timing(),
				Mapping: dram.StridedR2SA, Bank: 0,
				NewMitigator: func(sink track.Sink) track.Mitigator { return b.Factory()(0, sink) },
				RFMEvery:     b.RFMBAT(),
			})
			res := sim.RunWindows(pat, opt.Windows)
			if b.Insecure() {
				return
			}
			if res.MaxDoubleSided >= bound.TRHD {
				out = append(out, Violation{
					Policy: b.Name(), Check: "security",
					Detail: fmt.Sprintf("%s: max double-sided exposure %d reached bound %d (%s); %s",
						pname, res.MaxDoubleSided, bound.TRHD, bound.Kind, res),
				})
			}
			if res.Mitigations == 0 && res.Alerts == 0 && res.RFMs == 0 {
				out = append(out, Violation{
					Policy: b.Name(), Check: "security",
					Detail: fmt.Sprintf("%s: no mitigation activity over %d windows of attack (%s)",
						pname, opt.Windows, res),
				})
			}
		})
	}
	return out
}

// checkFaults wraps the policy in a fault-injection plan exercising every
// mitigator-facing fault class (state bit flips through StateInjector,
// ALERT drops and duplicates, RFM drops) and asserts the attacked run
// neither panics nor diverges between two identically seeded replays.
func checkFaults(b *track.Built, opt Options) (out []Violation) {
	plan, err := fault.Parse("seed=7,bitflip=5e-5,alertdrop=0.2,alertdup=0.05,rfmdrop=0.2")
	if err != nil {
		return []Violation{{Policy: b.Name(), Check: "faults", Detail: "bad plan: " + err.Error()}}
	}
	run := func() (res attack.BankSimResult, faults int64) {
		log := fault.NewLog()
		sim := attack.NewBankSim(attack.BankSimConfig{
			Geometry: dram.Default(), Timing: b.Timing(),
			Mapping: dram.StridedR2SA, Bank: 0,
			NewMitigator: func(sink track.Sink) track.Mitigator {
				return fault.Wrap(plan, b.Factory()(0, sink), 0, log)
			},
			RFMEvery: b.RFMBAT(),
		})
		pat := attack.DoubleSided(dram.Default(), dram.StridedR2SA, 3, 500)
		return sim.RunWindows(pat, 1), log.Total()
	}
	guard(b.Name(), "faults", &out, func() {
		res1, n1 := run()
		res2, n2 := run()
		if res1 != res2 || n1 != n2 {
			out = append(out, Violation{
				Policy: b.Name(), Check: "faults",
				Detail: fmt.Sprintf("non-deterministic under identical fault plan: %s / %d faults vs %s / %d faults",
					res1, n1, res2, n2),
			})
		}
	})
	return out
}

// checkStats drives a known activation mix into a fresh instance and
// cross-checks the policy's own Stats counters — the numbers FlushTelemetry
// publishes — against ground truth: ACTs seen must equal ACTs issued, and
// the tracker-side mitigation count must match what the sink observed.
func checkStats(b *track.Built, opt Options) (out []Violation) {
	guard(b.Name(), "stats", &out, func() {
		sink := &track.CountingSink{}
		m, err := b.NewMitigator(0, sink)
		if err != nil {
			out = append(out, Violation{Policy: b.Name(), Check: "stats", Detail: err.Error()})
			return
		}
		g := dram.Default()
		t := b.Timing()
		r1 := g.RowAt(dram.StridedR2SA, 3, 499)
		r2 := g.RowAt(dram.StridedR2SA, 3, 501)
		bat := b.RFMBAT()

		const n = 5000
		var now dram.Time
		refIndex, sinceREF, sinceRFM := 0, 0, 0
		for i := 0; i < n; i++ {
			row := r1
			if i%2 == 1 {
				row = r2
			}
			m.OnActivate(0, row, now)
			now += t.TRC
			if m.WantsALERT() {
				now += t.ABOStall
				m.ServiceALERT(now)
			}
			if sinceRFM++; bat > 0 && sinceRFM >= bat {
				sinceRFM = 0
				m.OnRFM(0, now)
				now += t.TRFM
			}
			if sinceREF++; sinceREF >= 84 { // ~tREFI/tRC activations per REF slot
				sinceREF = 0
				m.OnREF(refIndex, now)
				refIndex++
				now += t.TRFC
			}
		}

		src := track.Source(m)
		if src == nil {
			out = append(out, Violation{
				Policy: b.Name(), Check: "stats",
				Detail: "policy exposes no StatsSource; telemetry and the auditor cannot see it",
			})
			return
		}
		s := src.TrackStats()
		if s.ACTs != n {
			out = append(out, Violation{
				Policy: b.Name(), Check: "stats",
				Detail: fmt.Sprintf("Stats.ACTs = %d after %d activations", s.ACTs, n),
			})
		}
		if s.Mitigations != sink.Mitigations {
			out = append(out, Violation{
				Policy: b.Name(), Check: "stats",
				Detail: fmt.Sprintf("Stats.Mitigations = %d but sink observed %d", s.Mitigations, sink.Mitigations),
			})
		}

		// The same numbers must round-trip through the telemetry registry.
		reg := telemetry.New()
		track.FlushTelemetry(reg, m)
		snap := reg.Snapshot()
		if got := snap.CounterTotal("track_acts_total"); got != s.ACTs {
			out = append(out, Violation{
				Policy: b.Name(), Check: "stats",
				Detail: fmt.Sprintf("track_acts_total = %d, want %d", got, s.ACTs),
			})
		}
		if got := snap.CounterTotal("track_mitigations_total"); got != s.Mitigations {
			out = append(out, Violation{
				Policy: b.Name(), Check: "stats",
				Detail: fmt.Sprintf("track_mitigations_total = %d, want %d", got, s.Mitigations),
			})
		}
	})
	return out
}

// checkParams overrides each schema key of the policy in turn with
// boundary values of its kind — "0", "-1" and "1" for numbers, an unknown
// word for strings — and requires Build to return a policy or an error,
// never to panic: no outside input may reach a parameter getter's panic.
func checkParams(b *track.Built, env track.Config) (out []Violation) {
	d, err := track.Lookup(b.Name())
	if err != nil {
		return []Violation{{Policy: b.Name(), Check: "params", Detail: err.Error()}}
	}
	for _, spec := range d.ConfigSchema {
		vals := []string{"0", "-1", "1"}
		if spec.Kind == track.StringParam {
			vals = []string{"bogus"}
		}
		for _, v := range vals {
			func() {
				defer func() {
					if r := recover(); r != nil {
						out = append(out, Violation{Policy: b.Name(), Check: "params",
							Detail: fmt.Sprintf("Build with %s=%s panicked: %v", spec.Key, v, r)})
					}
				}()
				// A Built and an error are both acceptable outcomes.
				_, _ = track.Build(b.Name(), map[string]string{spec.Key: v}, env)
			}()
		}
	}
	return out
}

// checkAudit runs a short full-system simulation through
// experiments.Simulate — the one path every timing result takes,
// mirza-sim's and mirza-bench's included — with the protocol auditor
// attached and no warmup, and requires a clean audit: every mitigation the
// policy reports must reconcile with the channel-side command stream and
// DDR5 timing books.
func checkAudit(b *track.Built, opt Options) (out []Violation) {
	guard(b.Name(), "audit", &out, func() {
		spec, err := trace.Lookup("fotonik3d")
		if err != nil {
			out = append(out, Violation{Policy: b.Name(), Check: "audit", Detail: err.Error()})
			return
		}
		gens, err := trace.PerCore(spec, 8, opt.Seed)
		if err != nil {
			out = append(out, Violation{Policy: b.Name(), Check: "audit", Detail: err.Error()})
			return
		}
		_, err = experiments.Simulate(context.Background(),
			experiments.Options{Measure: dram.Time(0.2 * float64(dram.Millisecond)), Audit: true},
			nil, experiments.Machine{Gens: gens, MSHR: spec.MLPLimit(),
				Timing: b.Timing(), RFMBAT: b.RFMBAT(), NewMitigator: b.Factory()},
			telemetry.L("policy", b.Name()))
		if err != nil {
			out = append(out, Violation{Policy: b.Name(), Check: "audit", Detail: err.Error()})
		}
	})
	return out
}
