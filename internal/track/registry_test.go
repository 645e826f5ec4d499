package track

import (
	"fmt"
	"strings"
	"testing"

	"mirza/internal/dram"
)

func testEnv() Config {
	return Config{Geometry: dram.Default(), Mapping: dram.StridedR2SA, TRHD: 1000, Seed: 1}
}

// testDescriptor registers a toy policy under a unique name and returns it.
func testDescriptor(t *testing.T, name string) Descriptor {
	t.Helper()
	d := Descriptor{
		Name: name,
		Doc:  "test policy",
		ConfigSchema: []ParamSpec{
			{Key: "entries", Kind: IntParam, Doc: "entries"},
			{Key: "p", Kind: FloatParam, Doc: "probability"},
		},
		DefaultConfig: func(cfg Config) (Params, error) {
			return Params{"entries": "28", "p": "0.5"}, nil
		},
		Resolve: func(cfg Config) (Policy, error) {
			if n := cfg.Params.Int("entries"); n < 1 {
				return Policy{}, fmt.Errorf("entries must be >= 1, got %d", n)
			}
			return Policy{New: func(int, Sink) (Mitigator, error) { return NewNop(), nil }}, nil
		},
	}
	Register(d)
	return d
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	mustPanicWith(t, what, "", f)
}

// mustPanicWith asserts that f panics with a message containing want.
func mustPanicWith(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: expected panic", what)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q does not contain %q", what, msg, want)
		}
	}()
	f()
}

func TestRegisterValidation(t *testing.T) {
	mustPanic(t, "empty name", func() { Register(Descriptor{Name: "  "}) })
	mustPanic(t, "nil Resolve", func() { Register(Descriptor{Name: "reg-test-nilresolve"}) })
	mustPanic(t, "reserved chars", func() {
		Register(Descriptor{Name: "bad:name", Resolve: func(Config) (Policy, error) { return Policy{}, nil }})
	})
}

func TestRegisterDuplicatePanics(t *testing.T) {
	testDescriptor(t, "reg-test-dup")
	mustPanic(t, "exact duplicate", func() { testDescriptor(t, "reg-test-dup") })
	// Duplicate detection is case-insensitive.
	mustPanic(t, "case-insensitive duplicate", func() { testDescriptor(t, "Reg-Test-DUP") })
}

func TestLookupCaseInsensitive(t *testing.T) {
	testDescriptor(t, "reg-test-case")
	for _, name := range []string{"reg-test-case", "REG-TEST-CASE", "Reg-Test-Case", "  reg-test-case "} {
		d, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if d.Name != "reg-test-case" {
			t.Fatalf("Lookup(%q) resolved %q", name, d.Name)
		}
	}
}

func TestLookupUnknownNameError(t *testing.T) {
	testDescriptor(t, "reg-test-known")
	_, err := Lookup("definitely-not-registered")
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	for _, want := range []string{
		`unknown mitigation "definitely-not-registered"`,
		"registered mitigations:",
		"reg-test-known",
		"test policy",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestNamesSortedAndCanonical(t *testing.T) {
	testDescriptor(t, "reg-test-zz")
	testDescriptor(t, "reg-test-aa")
	names := Names()
	ia, iz := -1, -1
	for i, n := range names {
		if n == "reg-test-aa" {
			ia = i
		}
		if n == "reg-test-zz" {
			iz = i
		}
	}
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("Names() = %v: want reg-test-aa before reg-test-zz", names)
	}
}

func TestBuildDefaultsAndOverrides(t *testing.T) {
	testDescriptor(t, "reg-test-build")
	b, err := Build("REG-TEST-BUILD", nil, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Params().Int("entries"); got != 28 {
		t.Fatalf("default entries = %d, want 28", got)
	}
	if b.Name() != "reg-test-build" {
		t.Fatalf("Name() = %q", b.Name())
	}
	if b.Timing() != dram.DDR5() {
		t.Fatal("zero Policy.Timing should default to DDR5")
	}
	if b.RFMBAT() != 0 {
		t.Fatalf("zero Policy.RFMBAT should mean no RFMs, got %d", b.RFMBAT())
	}
	if bd := b.Bound(); bd.TRHD != 1000 || bd.Kind != "nominal TRHD" {
		t.Fatalf("zero Policy.Bound gave %+v", bd)
	}

	b, err = Build("reg-test-build", map[string]string{"entries": "7"}, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Params().Int("entries"); got != 7 {
		t.Fatalf("override entries = %d, want 7", got)
	}
	if got := b.Params().Float("p"); got != 0.5 {
		t.Fatalf("untouched default p = %v, want 0.5", got)
	}
	if m := b.Factory()(0, nil); m == nil {
		t.Fatal("Factory returned nil mitigator")
	}
}

func TestBuildRejectsBadOverrides(t *testing.T) {
	testDescriptor(t, "reg-test-bad")
	cases := []struct {
		name      string
		overrides map[string]string
		wantErr   string
	}{
		{"unknown key", map[string]string{"bogus": "1"}, `has no param "bogus"`},
		{"unknown key lists schema", map[string]string{"bogus": "1"}, "entries, p"},
		{"bad int", map[string]string{"entries": "many"}, "not a valid int"},
		{"bad float", map[string]string{"p": "half"}, "not a valid float"},
		{"constructor rejects", map[string]string{"entries": "0"}, "entries must be >= 1"},
		{"unknown name", nil, "unknown mitigation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := "reg-test-bad"
			if tc.name == "unknown name" {
				name = "reg-test-missing"
			}
			_, err := Build(name, tc.overrides, testEnv())
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Build error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestBuildChecksSchemaBag: Build refuses a descriptor whose defaults do
// not fill its schema with values of the right kinds, naming the key, so a
// policy's Resolve only ever sees a complete, well-formed bag.
func TestBuildChecksSchemaBag(t *testing.T) {
	resolve := func(Config) (Policy, error) {
		return Policy{New: func(int, Sink) (Mitigator, error) { return NewNop(), nil }}, nil
	}
	schema := []ParamSpec{{Key: "entries", Kind: IntParam}, {Key: "p", Kind: FloatParam}}
	for _, c := range []struct {
		name     string
		defaults Params
		want     string
	}{
		{"reg-test-nodefault", Params{"entries": "28"}, `param "p" has no default`},
		{"reg-test-badkind", Params{"entries": "many", "p": "0.5"}, `param "entries": value "many": not a valid int`},
		{"reg-test-extra", Params{"entries": "28", "p": "0.5", "q": "1"}, "outside the schema"},
	} {
		defaults := c.defaults
		Register(Descriptor{
			Name: c.name, ConfigSchema: schema, Resolve: resolve,
			DefaultConfig: func(Config) (Params, error) { return defaults, nil },
		})
		if _, err := Build(c.name, nil, testEnv()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Build error = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestResolveOutsideSchemaPanics: reading a key the schema does not
// declare is a bug in the policy, and the getter panics naming the key.
func TestResolveOutsideSchemaPanics(t *testing.T) {
	Register(Descriptor{
		Name:          "reg-test-outside",
		ConfigSchema:  []ParamSpec{{Key: "entries", Kind: IntParam}},
		DefaultConfig: func(Config) (Params, error) { return Params{"entries": "28"}, nil },
		Resolve: func(cfg Config) (Policy, error) {
			cfg.Params.Int("entrees")
			return Policy{}, nil
		},
	})
	mustPanicWith(t, "Resolve reading an undeclared key", `"entrees"`, func() {
		Build("reg-test-outside", nil, testEnv())
	})
}

func TestParamsAccessors(t *testing.T) {
	p := Params{"i": "-3", "f": "0.25", "s": "hello"}
	if v := p.Int("i"); v != -3 {
		t.Errorf("Int = %d", v)
	}
	if v := p.Float("f"); v != 0.25 {
		t.Errorf("Float = %v", v)
	}
	if v := p.Str("s"); v != "hello" {
		t.Errorf("Str = %q", v)
	}
	mustPanicWith(t, "Int(missing)", `"missing"`, func() { p.Int("missing") })
	mustPanicWith(t, "Int on non-integer", `"s"`, func() { p.Int("s") })
	mustPanicWith(t, "Float on non-number", `"s"`, func() { p.Float("s") })
}
