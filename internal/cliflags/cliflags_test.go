package cliflags

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mirza/internal/dram"
	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register every mitigation policy
)

// parse registers the shared flags on a fresh FlagSet, parses args, and
// resolves.
func parse(t *testing.T, args ...string) (Values, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	return c.Resolve()
}

func TestDefaults(t *testing.T) {
	v, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Faults.Empty() {
		t.Error("default fault plan must be empty")
	}
	if v.StallBudget != DefaultStallBudget {
		t.Errorf("stall budget = %v, want %v", v.StallBudget, DefaultStallBudget)
	}
	if v.Parallelism != 0 {
		t.Errorf("parallelism = %d, want 0 (GOMAXPROCS)", v.Parallelism)
	}
	if v.MetricsPath != "" {
		t.Errorf("metrics path = %q, want empty", v.MetricsPath)
	}
	if v.Audit {
		t.Error("audit must default to off")
	}
}

func TestAuditFlag(t *testing.T) {
	v, err := parse(t, "-audit")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Audit {
		t.Error("-audit did not enable auditing")
	}
}

func TestValidValues(t *testing.T) {
	v, err := parse(t,
		"-faults", "seed=7,alertdrop=0.5",
		"-stall-budget", "30s",
		"-j", "4",
		"-metrics", "/tmp/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if v.Faults.Empty() {
		t.Error("fault plan should be non-empty")
	}
	if v.StallBudget != 30*time.Second {
		t.Errorf("stall budget = %v", v.StallBudget)
	}
	if v.Parallelism != 4 {
		t.Errorf("parallelism = %d", v.Parallelism)
	}
	if v.MetricsPath != "/tmp/manifest.json" {
		t.Errorf("metrics path = %q", v.MetricsPath)
	}
}

func TestMalformedFaultPlans(t *testing.T) {
	for _, plan := range []string{
		"alertdrop",          // no value
		"alertdrop=nope",     // non-numeric
		"alertdrop=1.5",      // probability out of range
		"unknownknob=3",      // unknown key
		"seed=7,,alertdrop=", // empty terms
	} {
		if _, err := parse(t, "-faults", plan); err == nil {
			t.Errorf("plan %q: expected an error", plan)
		} else if !strings.Contains(err.Error(), "-faults") {
			t.Errorf("plan %q: error %v does not name the flag", plan, err)
		}
	}
}

func TestValidateListen(t *testing.T) {
	tests := []struct {
		addr    string
		wantErr string // substring of the error ("" = no error)
		warn    bool   // expect a privileged-port warning
	}{
		{addr: "", wantErr: "host:port"},
		{addr: ":0"},
		{addr: ":6060"},
		{addr: "127.0.0.1:6060"},
		{addr: "[::1]:6060"},
		{addr: "0.0.0.0:65535"},
		{addr: ":80", warn: true},
		{addr: "localhost:1", warn: true},
		{addr: "localhost:http", wantErr: "numeric"},
		{addr: ":70000", wantErr: "out of range"},
		{addr: ":-1", wantErr: "out of range"},
		{addr: "6060", wantErr: "host:port"},
		{addr: "host:port:extra", wantErr: "host:port"},
	}
	for _, tc := range tests {
		warn, err := ValidateListen(tc.addr)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ValidateListen(%q) err = %v, want substring %q", tc.addr, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ValidateListen(%q) unexpected error: %v", tc.addr, err)
			continue
		}
		if (warn != "") != tc.warn {
			t.Errorf("ValidateListen(%q) warning = %q, want warning=%v", tc.addr, warn, tc.warn)
		}
	}
}

func TestBadValues(t *testing.T) {
	if _, err := parse(t, "-j", "-2"); err == nil || !strings.Contains(err.Error(), "-j") {
		t.Errorf("negative -j: err = %v, want an error naming the flag", err)
	}
	if _, err := parse(t, "-stall-budget", "-5s"); err == nil || !strings.Contains(err.Error(), "-stall-budget") {
		t.Errorf("negative -stall-budget: err = %v, want an error naming the flag", err)
	}
}

func TestWindowMS(t *testing.T) {
	huge := float64(math.MaxInt64) / float64(dram.Millisecond) * 2
	tests := []struct {
		ms     float64
		zeroOK bool
		want   dram.Time
		ok     bool
	}{
		{0.5, false, 500 * dram.Microsecond, true},
		{2, true, 2 * dram.Millisecond, true},
		{0, true, 0, true},
		{0, false, 0, false},
		{-1, true, 0, false},
		{-1, false, 0, false},
		{math.NaN(), true, 0, false},
		{math.Inf(1), true, 0, false},
		{math.Inf(-1), true, 0, false},
		{huge, true, 0, false},
		{1e-12, true, 0, false}, // rounds to zero picoseconds
	}
	for _, tc := range tests {
		got, err := WindowMS("-measure-ms", tc.ms, tc.zeroOK)
		if (err == nil) != tc.ok {
			t.Errorf("WindowMS(%v, zeroOK=%v) err = %v, want ok=%v", tc.ms, tc.zeroOK, err, tc.ok)
			continue
		}
		if err != nil && !strings.Contains(err.Error(), "-measure-ms") {
			t.Errorf("WindowMS(%v): error %v does not name the flag", tc.ms, err)
		}
		if got != tc.want {
			t.Errorf("WindowMS(%v, zeroOK=%v) = %v, want %v", tc.ms, tc.zeroOK, got, tc.want)
		}
	}
}

func TestWorkloads(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string
		bad  string // the name the error must quote; "" = valid
	}{
		{"", nil, ""},
		{"xz", []string{"xz"}, ""},
		{"fotonik3d,mix_1,bc", []string{"fotonik3d", "mix_1", "bc"}, ""},
		{"nosuchwork", nil, `"nosuchwork"`},
		{"xz,,xz", nil, `""`},
		{"xz,", nil, `""`},
		{",", nil, `""`},
		{"xz, bc", []string{"xz", "bc"}, ""},
		{" xz ,mcf ", []string{"xz", "mcf"}, ""},
		{"xz, ,bc", nil, `""`},
		{"xz, nosuch", nil, `"nosuch"`},
		{"XZ", nil, `"XZ"`},
	} {
		got, err := Workloads("-workloads", tc.list)
		if tc.bad == "" {
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Workloads(%q) = %q, %v; want %q", tc.list, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("Workloads(%q) = %q, want an error", tc.list, got)
			continue
		}
		for _, want := range []string{"-workloads", tc.bad, "fotonik3d", "mix_6"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Workloads(%q): error %q lacks %s", tc.list, err, want)
			}
		}
	}
}

func TestReplayWindows(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{0, true}, {2, true}, {16, true}, {1, false}, {-1, false}, {-3, false}} {
		err := ReplayWindows("-replay-windows", tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("ReplayWindows(%d) err = %v, want ok=%v", tc.n, err, tc.ok)
		} else if err != nil && !strings.Contains(err.Error(), "-replay-windows") {
			t.Errorf("ReplayWindows(%d): error %v does not name the flag", tc.n, err)
		}
	}
}

func TestTraceFlag(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.trace")
	b := filepath.Join(dir, "b.ndjson")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte("0x0 READ 0\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	v, err := parse(t, "-trace", a+" , "+b)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.TraceFiles) != 2 || v.TraceFiles[0] != a || v.TraceFiles[1] != b {
		t.Errorf("TraceFiles = %v, want [%s %s]", v.TraceFiles, a, b)
	}
	if v, err := parse(t); err != nil || v.TraceFiles != nil {
		t.Errorf("default TraceFiles = %v (err %v), want none", v.TraceFiles, err)
	}
	if _, err := parse(t, "-trace", filepath.Join(dir, "missing.trace")); err == nil ||
		!strings.Contains(err.Error(), "-trace") {
		t.Errorf("missing file: err = %v, want an error naming the flag", err)
	}
	if _, err := parse(t, "-trace", dir); err == nil ||
		!strings.Contains(err.Error(), "directory") {
		t.Errorf("directory: err = %v, want a directory error", err)
	}
}

func TestTenantsFlag(t *testing.T) {
	v, err := parse(t, "-tenants", "attack=edge : 2 + xz")
	if err != nil {
		t.Fatal(err)
	}
	if v.Tenants != "attack=edge:2+xz:1" {
		t.Errorf("Tenants = %q, want the canonical spec", v.Tenants)
	}
	if v, err := parse(t); err != nil || v.Tenants != "" {
		t.Errorf("default Tenants = %q (err %v), want empty", v.Tenants, err)
	}
	if _, err := parse(t, "-tenants", "no-such-workload:2"); err == nil ||
		!strings.Contains(err.Error(), "-tenants") {
		t.Errorf("bad spec: err = %v, want an error naming the flag", err)
	}
}

func TestParseMitigation(t *testing.T) {
	cases := []struct {
		in        string
		name      string
		overrides map[string]string
		wantErr   string // substring; "" means valid
	}{
		{in: "mirza", name: "mirza"},
		{in: "  prac  ", name: "prac"},
		{in: "prac:ath=400", name: "prac", overrides: map[string]string{"ath": "400"}},
		{in: "mirza:fth=1500,window=12,queue=8", name: "mirza",
			overrides: map[string]string{"fth": "1500", "window": "12", "queue": "8"}},
		{in: " graphene : threshold = 250 , entries = 64 ", name: "graphene",
			overrides: map[string]string{"threshold": "250", "entries": "64"}},
		{in: "mopac:p=0.25", name: "mopac", overrides: map[string]string{"p": "0.25"}},
		// A value may itself contain '=' (split happens at the first one).
		{in: "x:k=a=b", name: "x", overrides: map[string]string{"k": "a=b"}},
		{in: "", wantErr: "policy name required"},
		{in: ":ath=400", wantErr: "policy name required"},
		{in: "prac:", wantErr: "empty key=val entry"},
		{in: "prac:ath", wantErr: "not key=val"},
		{in: "prac:ath=400,,window=4", wantErr: "empty key=val entry"},
		{in: "prac:=400", wantErr: "empty key or value"},
		{in: "prac:ath=", wantErr: "empty key or value"},
		{in: "prac:ath=400,ath=500", wantErr: "duplicate key"},
	}
	for _, tc := range cases {
		name, overrides, err := ParseMitigation(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseMitigation(%q): err = %v, want substring %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMitigation(%q): unexpected error %v", tc.in, err)
			continue
		}
		if name != tc.name {
			t.Errorf("ParseMitigation(%q): name = %q, want %q", tc.in, name, tc.name)
		}
		if len(overrides) != len(tc.overrides) {
			t.Errorf("ParseMitigation(%q): overrides = %v, want %v", tc.in, overrides, tc.overrides)
			continue
		}
		for k, want := range tc.overrides {
			if got := overrides[k]; got != want {
				t.Errorf("ParseMitigation(%q): overrides[%q] = %q, want %q", tc.in, k, got, want)
			}
		}
	}
}

// parseMitigation registers the mitigation flags (with the -defense
// alias) on a fresh FlagSet and parses args.
func parseMitigation(t *testing.T, args ...string) *Mitigation {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	m := RegisterMitigation(fs)
	m.Alias(fs, "defense")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	return m
}

func TestMitigationDefaults(t *testing.T) {
	m := parseMitigation(t)
	if m.Spec() != "mirza" || m.TRHD() != 1000 || m.Seed() != 1 {
		t.Errorf("defaults = (%q, %d, %d), want (mirza, 1000, 1)", m.Spec(), m.TRHD(), m.Seed())
	}
	var out bytes.Buffer
	if m.Listed(&out) || out.Len() != 0 {
		t.Errorf("Listed without -list-mitigations printed %q", out.String())
	}
	b, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "mirza" {
		t.Errorf("built %q, want mirza", b.Name())
	}
}

func TestMitigationFlags(t *testing.T) {
	m := parseMitigation(t, "-defense", "prac:ath=400", "-trhd", "500", "-seed", "9")
	if m.Spec() != "prac:ath=400" || m.TRHD() != 500 || m.Seed() != 9 {
		t.Errorf("parsed (%q, %d, %d), want (prac:ath=400, 500, 9)", m.Spec(), m.TRHD(), m.Seed())
	}
	if b, err := m.Build(); err != nil || b.Name() != "prac" {
		t.Errorf("Build = %v, %v; want prac", b, err)
	}
	for _, spec := range []string{"zilch", "prac:", "prac:nosuchkey=1"} {
		if _, err := parseMitigation(t, "-mitigation", spec).Build(); err == nil {
			t.Errorf("Build(%q) succeeded, want an error", spec)
		}
	}
}

func TestListMitigations(t *testing.T) {
	var out bytes.Buffer
	if !parseMitigation(t, "-list-mitigations").Listed(&out) {
		t.Fatal("Listed = false with -list-mitigations")
	}
	for _, d := range track.Descriptors() {
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("listing lacks policy %q:\n%s", d.Name, out.String())
		}
	}
	if !strings.Contains(out.String(), "[no security guarantee]") {
		t.Errorf("listing does not flag the insecure policies:\n%s", out.String())
	}
}
