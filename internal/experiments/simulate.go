package experiments

import (
	"context"
	"fmt"

	"mirza/internal/audit"
	"mirza/internal/cpu"
	"mirza/internal/dram"
	"mirza/internal/fault"
	"mirza/internal/mem"
	"mirza/internal/sim"
	"mirza/internal/telemetry"
	"mirza/internal/trace"
	"mirza/internal/track"
)

// Machine is what one full-system simulation varies: the per-core request
// streams and address spaces, the MSHR budget, and the protected channel.
// The run-wide windows and guards come from Options (see Simulate).
type Machine struct {
	// Gens drives one core each.
	Gens []trace.Generator

	// ASIDs groups cores into address spaces; nil gives each core a
	// private one (see cpu.SystemConfig.ASIDs).
	ASIDs []int

	// MSHR is each core's outstanding-miss budget.
	MSHR int

	// Timing, RFMBAT and NewMitigator configure the channel; a zero Timing
	// is DDR5 and a nil NewMitigator leaves it unprotected.
	Timing       dram.Timing
	RFMBAT       int
	NewMitigator func(sub int, sink track.Sink) track.Mitigator
}

// Simulate is the one full-system simulation path: every timing result —
// experiment baselines, MLP calibration, protected runs, multi-tenant and
// trace replays, mirza-sim and the conformance audit — comes out of it.
//
// It fault-wraps each sub-channel's mitigator under o.Faults (stream id =
// sub-channel index, injections recorded in log, which may be nil when
// there is no mitigator or the plan is empty), builds the system,
// arms a fresh watchdog when o.StallBudget > 0 and the protocol auditor
// when o.Audit is set, runs o.Warmup, snapshots, runs o.Measure more,
// flushes telemetry into o.Telemetry under label, and finishes the audit.
// Errors name label's value and the failing phase. The returned system's
// IPCs, MemStats and Window cover the measured window.
func Simulate(ctx context.Context, o Options, log *fault.Log, m Machine, label telemetry.Label) (*cpu.System, error) {
	factory := m.NewMitigator
	if factory != nil {
		inner := factory
		factory = func(sub int, sink track.Sink) track.Mitigator {
			return fault.Wrap(o.Faults, inner(sub, sink), uint64(sub), log)
		}
	}
	sys, err := cpu.NewSystem(cpu.SystemConfig{
		Cores: len(m.Gens),
		Core:  cpu.CoreConfig{MSHR: m.MSHR},
		ASIDs: m.ASIDs,
		Mem: mem.Config{
			Timing:       m.Timing,
			Mapping:      dram.StridedR2SA,
			RFMBAT:       m.RFMBAT,
			NewMitigator: factory,
			Telemetry:    o.Telemetry,
		},
	}, m.Gens)
	if err != nil {
		return nil, err
	}
	if o.StallBudget > 0 {
		sys.Watchdog = &sim.Watchdog{Budget: o.StallBudget}
	}
	var aud *audit.Auditor
	if o.Audit {
		aud = audit.ForChannel(sys.Channel)
	}
	if err := sys.RunCtx(ctx, o.Warmup); err != nil {
		return nil, fmt.Errorf("%s warmup: %w", label.Value, err)
	}
	sys.Snapshot()
	if err := sys.RunCtx(ctx, o.Warmup+o.Measure); err != nil {
		return nil, fmt.Errorf("%s measure: %w", label.Value, err)
	}
	sys.FlushTelemetry(label)
	if err := aud.Finish(sys.Channel); err != nil {
		return nil, fmt.Errorf("%s protocol audit: %w", label.Value, err)
	}
	return sys, nil
}

// timingResult is the measured window of one simulation.
type timingResult struct {
	IPCs   []float64
	Stats  mem.Stats
	Window dram.Time
}

// simulate runs m through Simulate under the job's context, the runner's
// options and the job's fault log, with telemetry labelled layer=<layer>.
func (x *Exec) simulate(m Machine, layer string) (*timingResult, error) {
	sys, err := Simulate(x.context(), x.r.opts, x.log, m, telemetry.L("layer", layer))
	if err != nil {
		return nil, err
	}
	return &timingResult{IPCs: sys.IPCs(), Stats: sys.MemStats(), Window: sys.Window()}, nil
}
