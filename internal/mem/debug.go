package mem

// DebugOptions bundles every test-only instrumentation hook the command
// path exposes. The hot path carries exactly one package-level pointer
// (nil in production): each hook site loads it once and pays a single nil
// test, so an uninstalled hook set costs nothing measurable.
type DebugOptions struct {
	// Wake, when non-nil, receives the number of transitions (commands
	// and protocol steps) each scheduler wake performed (0 = the wake
	// made no progress).
	Wake func(progress int)

	// SkipFAW disables the four-activation-window pacing check. It exists
	// solely so the audit tests can prove the auditor catches a controller
	// that stops honouring tFAW.
	SkipFAW bool
}

// debugOpts is the single active hook set. Plain (unsynchronized)
// package-level state: install before the simulation starts, from the
// same goroutine that runs it, and never while the job engine fans
// simulations out across workers. debugSkipFAW mirrors
// debugOpts.SkipFAW as a plain bool so the scheduling scan reads one
// global instead of chasing the pointer per pass.
var (
	debugOpts    *DebugOptions
	debugSkipFAW bool
)

// InstallDebug makes o the active hook set for every sub-channel in the
// process. Passing nil uninstalls. Test instrumentation only — never
// install in production runs.
func InstallDebug(o *DebugOptions) {
	debugOpts = o
	debugSkipFAW = o != nil && o.SkipFAW
}
