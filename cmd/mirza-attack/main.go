// Command mirza-attack evaluates Rowhammer defenses against worst-case
// attack patterns using the bank-level attack simulator: it drives
// activations at full DRAM speed (one ACT per tRC, REF every tREFI, the
// full ABO protocol, RFM at the policy's BAT) and reports the maximum
// unmitigated activations any victim experienced, against the analytic
// safe-threshold bounds of Section VI.
//
// Usage:
//
//	mirza-attack -mitigation mirza -trhd 1000 -pattern double-sided -windows 4
//	mirza-attack -mitigation prac:ath=400 -trhd 500 -pattern circular -rows 32
//	mirza-attack -mitigation trr -pattern trr-evasion
//	mirza-attack -mitigation none -pattern double-sided
//	mirza-attack -list-mitigations
//
// Mitigation policies are resolved by name from the registry in
// internal/track (every policy in internal/track/policies is available);
// parameters are overridden inline with -mitigation name:key=val,...
// -defense is kept as an alias for -mitigation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mirza/internal/attack"
	"mirza/internal/cliflags"
	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register every mitigation policy
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the attack and prints the
// verdict to stdout. It returns the exit status: 0 secure, 1 broken or
// invalid input, 2 a malformed command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mirza-attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pattern = fs.String("pattern", "double-sided", "single-sided | double-sided | circular | feinting | edge | trr-evasion")
		rows    = fs.Int("rows", 32, "rows for the circular pattern")
		windows = fs.Int("windows", 2, "refresh windows (32ms each) to attack")
		mit     = cliflags.RegisterMitigation(fs)
	)
	mit.Alias(fs, "defense")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "mirza-attack:", err)
		return code
	}

	if mit.Listed(stdout) {
		return 0
	}

	g := dram.Default()
	mapping := dram.StridedR2SA
	if *windows < 1 {
		return fail(2, fmt.Errorf("-windows: must attack at least one refresh window, got %d", *windows))
	}
	if maxRows := (g.SubarrayRows - 1) / 2; *pattern == "circular" && (*rows < 1 || *rows > maxRows) {
		return fail(2, fmt.Errorf("-rows: a circular pattern needs 1 to %d rows to fit a subarray, got %d", maxRows, *rows))
	}

	built, err := mit.Build()
	if err != nil {
		return fail(1, err)
	}
	timing := built.Timing()
	trhd := mit.TRHD()

	var pat attack.Pattern
	switch *pattern {
	case "single-sided":
		pat = attack.SingleSided(g, mapping, 3, 500)
	case "double-sided":
		pat = attack.DoubleSided(g, mapping, 3, 500)
	case "circular":
		pat = attack.Circular(g, mapping, 3, *rows)
	case "feinting", "edge":
		// These patterns target MIRZA's queue and region geometry, so they
		// are parameterized by the paper's configuration for this TRHD.
		cfg, err := core.ForTRHD(trhd)
		if err != nil {
			return fail(1, err)
		}
		if *pattern == "feinting" {
			pat = attack.Feinting(g, mapping, 3, cfg.QueueSize)
		} else {
			pat = attack.EdgeDoubleSided(g, mapping, 3, cfg.RegionRows())
		}
	case "trr-evasion":
		rot := make([]int, 0, 16)
		for i := 0; i < 15; i++ {
			rot = append(rot, g.RowAt(mapping, 3, 499+2*(i%2)))
		}
		rot = append(rot, g.RowAt(mapping, 3, 900))
		pat = attack.NewRotation("trr-evasion", rot...)
	default:
		return fail(1, fmt.Errorf("unknown pattern %q", *pattern))
	}

	sim := attack.NewBankSim(attack.BankSimConfig{
		Geometry: g, Timing: timing, Mapping: mapping, Bank: 0,
		NewMitigator: func(sink track.Sink) track.Mitigator { return built.Factory()(0, sink) },
		RFMEvery:     built.RFMBAT(),
	})
	res := sim.RunWindows(pat, *windows)
	bound := built.Bound()

	fmt.Fprintf(stdout, "defense  : %s (configured for TRHD=%d)\n", sim.Mitigator().Name(), trhd)
	fmt.Fprintf(stdout, "pattern  : %s over %d refresh windows (%v)\n", pat.Name(), *windows, res.Elapsed)
	fmt.Fprintf(stdout, "activity : %d ACTs, %d REFs, %d RFMs, %d ALERTs, %d mitigations\n",
		res.ACTs, res.REFs, res.RFMs, res.Alerts, res.Mitigations)
	fmt.Fprintf(stdout, "exposure : max single-sided %d, max double-sided %d unmitigated ACTs\n",
		res.MaxSingleSided, res.MaxDoubleSided)
	fmt.Fprintf(stdout, "bound    : %d (%s)\n", bound.TRHD, bound.Kind)
	if res.MaxDoubleSided >= bound.TRHD {
		fmt.Fprintln(stdout, "verdict  : BROKEN (exposure reached the threshold)")
		return 1
	}
	fmt.Fprintln(stdout, "verdict  : SECURE (exposure stayed below the bound)")
	return 0
}
