// Package cliflags registers and validates the command-line flags shared
// by the commands: the fault-injection plan (-faults), the livelock
// watchdog budget (-stall-budget), the job-engine worker count (-j), and
// the telemetry manifest path (-metrics) of mirza-sim and mirza-bench
// (Register), their simulated-time window flags (WindowMS,
// ReplayWindows), mirza-bench's workload subset (Workloads), and the
// mitigation policy flags of mirza-sim and mirza-attack
// (RegisterMitigation). Keeping the parsing in one place
// keeps the binaries' flag semantics — and their error messages for
// malformed input — identical.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"mirza/internal/dram"
	"mirza/internal/fault"
	"mirza/internal/tenant"
	"mirza/internal/trace"
	"mirza/internal/track"
)

// DefaultStallBudget is the watchdog budget both commands default to.
const DefaultStallBudget = 2 * time.Minute

// Common holds the raw values of the shared flags as registered on a
// FlagSet. Call Resolve after flag parsing to validate them.
type Common struct {
	faults  *string
	stall   *time.Duration
	j       *int
	metrics *string
	audit   *bool
	trace   *string
	tenants *string
}

// Register installs the shared flags on fs and returns the handle to
// resolve them after fs.Parse.
func Register(fs *flag.FlagSet) *Common {
	return &Common{
		faults: fs.String("faults", "",
			"fault-injection plan, e.g. seed=7,bitflip=1e-5,alertdrop=0.2 (see internal/fault)"),
		stall: fs.Duration("stall-budget", DefaultStallBudget,
			"abort a simulation whose event time stops advancing for this long (0 = disabled)"),
		j: fs.Int("j", 0,
			"worker count for the job engine (0 = GOMAXPROCS; 1 = strictly sequential)"),
		metrics: fs.String("metrics", "",
			"write a telemetry RunManifest JSON snapshot to this path at exit"),
		audit: fs.Bool("audit", false,
			"attach the DDR5 protocol auditor to every simulated channel and fail on violations (see internal/audit)"),
		trace: fs.String("trace", "",
			"comma-separated recorded trace files to replay (DRAMSim3 'addr cmd cycle' or NDJSON; see internal/tracefile)"),
		tenants: fs.String("tenants", "",
			"multi-tenant scenario spec, '+'-separated name[:cores] with one attack=edge|double entry, e.g. "+tenant.DefaultSpec),
	}
}

// Values are the validated shared settings.
type Values struct {
	Faults      fault.Plan
	StallBudget time.Duration
	Parallelism int
	MetricsPath string
	Audit       bool

	// TraceFiles are the -trace paths, split and verified to exist at
	// flag-resolution time so a typo fails before any simulation starts.
	TraceFiles []string

	// Tenants is the -tenants spec in canonical form (tenant.Parse then
	// String), or "" when the flag was not given.
	Tenants string
}

// ParseMitigation splits a -mitigation value of the form
// "name[:key=val,key=val,...]" — shared by mirza-sim and mirza-attack —
// into the policy name and its parameter overrides. Only the syntax is
// validated here; the name and the override keys/values are checked against
// the mitigation registry by track.Build, so both binaries report unknown
// policies and malformed parameters identically.
func ParseMitigation(s string) (name string, overrides map[string]string, err error) {
	name = s
	rest := ""
	hasRest := false
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, rest, hasRest = s[:i], s[i+1:], true
	}
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("-mitigation: policy name required (name[:key=val,...]), got %q", s)
	}
	if !hasRest {
		return name, nil, nil
	}
	overrides = map[string]string{}
	for _, part := range strings.Split(rest, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return "", nil, fmt.Errorf("-mitigation %q: empty key=val entry", s)
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("-mitigation %q: %q is not key=val", s, part)
		}
		k, v := strings.TrimSpace(part[:eq]), strings.TrimSpace(part[eq+1:])
		if k == "" || v == "" {
			return "", nil, fmt.Errorf("-mitigation %q: %q has an empty key or value", s, part)
		}
		if _, dup := overrides[k]; dup {
			return "", nil, fmt.Errorf("-mitigation %q: duplicate key %q", s, k)
		}
		overrides[k] = v
	}
	if len(overrides) == 0 {
		return "", nil, fmt.Errorf("-mitigation %q: expected key=val after %q:", s, name)
	}
	return name, overrides, nil
}

// Mitigation holds the raw values of the mitigation flags shared by
// mirza-sim and mirza-attack: -mitigation, -trhd, -seed and
// -list-mitigations.
type Mitigation struct {
	spec *string
	trhd *int
	seed *uint64
	list *bool
}

// RegisterMitigation installs the mitigation flags on fs and returns the
// handle to read them after fs.Parse.
func RegisterMitigation(fs *flag.FlagSet) *Mitigation {
	return &Mitigation{
		spec: fs.String("mitigation", "mirza", "mitigation policy, name[:key=val,...] (see -list-mitigations)"),
		trhd: fs.Int("trhd", 1000, "target double-sided Rowhammer threshold"),
		seed: fs.Uint64("seed", 1, "random seed"),
		list: fs.Bool("list-mitigations", false, "list registered mitigation policies and exit"),
	}
}

// Alias registers name on fs as another spelling of -mitigation.
func (m *Mitigation) Alias(fs *flag.FlagSet, name string) {
	fs.StringVar(m.spec, name, *m.spec, "alias for -mitigation")
}

// Spec returns the -mitigation value as given.
func (m *Mitigation) Spec() string { return *m.spec }

// TRHD returns the -trhd target threshold.
func (m *Mitigation) TRHD() int { return *m.trhd }

// Seed returns the -seed value.
func (m *Mitigation) Seed() uint64 { return *m.seed }

// Listed reports whether -list-mitigations was given, after printing
// every registered policy and its tunables to w if so.
func (m *Mitigation) Listed(w io.Writer) bool {
	if !*m.list {
		return false
	}
	for _, d := range track.Descriptors() {
		note := ""
		if d.Insecure {
			note = " [no security guarantee]"
		}
		fmt.Fprintf(w, "%-12s %s%s\n", d.Name, d.Doc, note)
		for _, p := range d.ConfigSchema {
			fmt.Fprintf(w, "    %-10s %-6s %s\n", p.Key, p.Kind, p.Doc)
		}
	}
	return true
}

// Build parses -mitigation and builds the policy from the registry for
// -trhd and -seed on the default geometry under the strided mapping.
func (m *Mitigation) Build() (*track.Built, error) {
	name, overrides, err := ParseMitigation(*m.spec)
	if err != nil {
		return nil, err
	}
	return track.Build(name, overrides, track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     *m.trhd,
		Seed:     *m.seed,
	})
}

// WindowMS validates a simulated-time window flag given in milliseconds
// (-ms, -measure-ms, -warmup-ms) and converts it to simulated time. The
// value must be finite, not negative and representable in picoseconds. A
// zero is accepted only when zeroOK — mirza-sim's -warmup-ms 0 means no
// warmup and mirza-bench reads 0 as "the default" — and a positive value
// must not round down to zero.
func WindowMS(name string, ms float64, zeroOK bool) (dram.Time, error) {
	want := "a finite, positive"
	if zeroOK {
		want = "a finite, non-negative"
	}
	if !(ms >= 0) || ms > float64(math.MaxInt64)/float64(dram.Millisecond) || (ms == 0 && !zeroOK) {
		return 0, fmt.Errorf("-%s: window must be %s number of milliseconds, got %v", name, want, ms)
	}
	t := dram.Time(ms * float64(dram.Millisecond))
	if ms > 0 && t == 0 {
		return 0, fmt.Errorf("-%s: %v ms is shorter than a picosecond", name, ms)
	}
	return t, nil
}

// ReplayWindows validates a -replay-windows count: 0 selects the default,
// and an explicit count must cover the warmup window plus at least one
// measured window.
func ReplayWindows(n int) error {
	if n != 0 && n < 2 {
		return fmt.Errorf("-replay-windows: want 0 (default) or at least 2 tREFW windows, got %d", n)
	}
	return nil
}

// Workloads validates a comma-separated -workloads list against the
// workload table. An empty list selects every workload (nil); otherwise
// every name must be a known workload, so a typo or a stray comma fails
// the command instead of being ignored or failing mid-run.
func Workloads(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	names := strings.Split(list, ",")
	for _, n := range names {
		if _, err := trace.Lookup(n); err != nil {
			return nil, fmt.Errorf("-workloads: unknown workload %q in %q (valid: %s)", n, list, strings.Join(trace.WorkloadNames(), ", "))
		}
	}
	return names, nil
}

// ValidateListen validates a -listen address shared by mirza-bench and
// mirza-serve: it must be a host:port pair with a numeric port in
// [0, 65535] (named service ports are rejected so both binaries fail the
// same way on the same inputs). An empty host binds every interface; port
// 0 asks the kernel for an ephemeral port. The returned warning is
// non-empty for a privileged port (1-1023), which usually needs elevated
// permissions and is almost never what a local metrics endpoint wants.
func ValidateListen(addr string) (warning string, err error) {
	if addr == "" {
		return "", fmt.Errorf("-listen: address must be host:port (e.g. 127.0.0.1:6060 or :0), got empty string")
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("-listen: %q is not host:port: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("-listen: port %q must be numeric (named service ports are not supported)", portStr)
	}
	if port < 0 || port > 65535 {
		return "", fmt.Errorf("-listen: port %d out of range [0, 65535]", port)
	}
	if port > 0 && port < 1024 {
		warning = fmt.Sprintf("-listen: port %d is privileged (< 1024); binding usually requires elevated permissions", port)
	}
	_ = host // empty host (":6060") is valid: bind all interfaces
	return warning, nil
}

// Resolve validates the parsed flag values. It must be called after the
// owning FlagSet has been parsed.
func (c *Common) Resolve() (Values, error) {
	plan, err := fault.Parse(*c.faults)
	if err != nil {
		return Values{}, fmt.Errorf("-faults: %w", err)
	}
	if *c.stall < 0 {
		return Values{}, fmt.Errorf("-stall-budget: must be >= 0, got %v", *c.stall)
	}
	if *c.j < 0 {
		return Values{}, fmt.Errorf("-j: worker count must be >= 0, got %d", *c.j)
	}
	var traces []string
	for _, p := range strings.Split(*c.trace, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if fi, err := os.Stat(p); err != nil {
			return Values{}, fmt.Errorf("-trace: %w", err)
		} else if fi.IsDir() {
			return Values{}, fmt.Errorf("-trace: %s is a directory, want a trace file", p)
		}
		traces = append(traces, p)
	}
	tenants := ""
	if *c.tenants != "" {
		spec, err := tenant.Parse(*c.tenants)
		if err != nil {
			return Values{}, fmt.Errorf("-tenants: %w", err)
		}
		tenants = spec.String()
	}
	return Values{
		Faults:      plan,
		StallBudget: *c.stall,
		Parallelism: *c.j,
		MetricsPath: *c.metrics,
		Audit:       *c.audit,
		TraceFiles:  traces,
		Tenants:     tenants,
	}, nil
}
