package conformance

import (
	"strings"
	"testing"

	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register every mitigation policy
)

// options picks the battery size: the full sweep normally, a reduced one
// (single pattern, one window, no full-system audit) under -short.
func options(t *testing.T) Options {
	t.Helper()
	if testing.Short() {
		return Options{Windows: 1, Patterns: []string{"double-sided"}, SkipAudit: true}
	}
	return Options{}
}

// TestRegisteredPoliciesConform is the gate new defenses must pass: every
// name in the registry goes through the security sweep, fault-injection
// replay, stats sanity, boundary parameter overrides, and (full mode) the
// audited system run.
func TestRegisteredPoliciesConform(t *testing.T) {
	opt := options(t)
	names := track.Names()
	if len(names) < 10 {
		t.Fatalf("registry has only %d policies: %v", len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, v := range Check(name, opt) {
				t.Errorf("conformance violation: %s", v)
			}
		})
	}
}

func TestCheckUnknownPolicy(t *testing.T) {
	vs := Check("definitely-not-registered", Options{})
	if len(vs) != 1 || vs[0].Check != "build" {
		t.Fatalf("Check(unknown) = %v, want one build violation", vs)
	}
	if !strings.Contains(vs[0].Detail, "unknown mitigation") {
		t.Fatalf("violation detail %q does not explain the unknown name", vs[0].Detail)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Policy: "prac", Check: "security", Detail: "boom"}
	if got := v.String(); got != "prac [security]: boom" {
		t.Fatalf("Violation.String() = %q", got)
	}
}
