package tenant

import (
	"reflect"
	"testing"
)

// FuzzTenantSpec: Parse never panics, every spec it accepts renders
// (String) to a spec that parses back equal, and no accepted spec needs
// more than MaxCores cores. Parse only: no generator is built. The
// seed corpus lives in testdata/fuzz/FuzzTenantSpec.
func FuzzTenantSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		if n := s.TotalCores(); n < 1 || n > MaxCores {
			t.Fatalf("%q parsed to %d cores, want 1..%d", in, n, MaxCores)
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("%q parsed to %q, which fails to parse: %v", in, s, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("%q parsed to %+v, but its rendering %q parses to %+v", in, s.Tenants, s, again.Tenants)
		}
	})
}
