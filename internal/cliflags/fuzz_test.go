package cliflags

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzParseMitigation: ParseMitigation never panics, and every spec it
// accepts is canonical up to spacing and key order: re-joining the name
// with its sorted key=val pairs parses back to the same result. The seed
// corpus lives in testdata/fuzz/FuzzParseMitigation.
func FuzzParseMitigation(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		name, overrides, err := ParseMitigation(spec)
		if err != nil {
			return
		}
		joined := name
		if overrides != nil {
			keys := make([]string, 0, len(overrides))
			for k := range overrides {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pairs := make([]string, len(keys))
			for i, k := range keys {
				pairs[i] = k + "=" + overrides[k]
			}
			joined += ":" + strings.Join(pairs, ",")
		}
		name2, overrides2, err := ParseMitigation(joined)
		if err != nil {
			t.Fatalf("%q parsed to (%q, %v), but its re-join %q fails: %v", spec, name, overrides, joined, err)
		}
		if name2 != name || !reflect.DeepEqual(overrides2, overrides) {
			t.Fatalf("%q parsed to (%q, %v), but its re-join %q parses to (%q, %v)", spec, name, overrides, joined, name2, overrides2)
		}
	})
}
