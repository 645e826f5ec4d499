package policies

import (
	"fmt"
	"strings"
	"testing"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/track"
)

func buildDefault(t *testing.T, name string, trhd int) *track.Built {
	t.Helper()
	b, err := track.Build(name, nil, track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     trhd,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return b
}

// TestDefaultsMatchTableI pins every registration's DefaultConfig to the
// provisioning the bespoke construction sites used before the registry:
// Table-I parameters must live in exactly one place and keep their values.
func TestDefaultsMatchTableI(t *testing.T) {
	const trhd = 1000
	mint := security.DefaultMINTModel()
	mirzaCfg, err := core.ForTRHD(trhd)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{
		"prac":     {"ath": fmt.Sprint(track.ATHForTRHD(trhd))},
		"mint-rfm": {"window": fmt.Sprint(mint.WindowForTRHD(trhd))},
		"mint-ref": {"window": fmt.Sprint(security.WindowPerREFs(dram.DDR5(), 1)), "every": "1"},
		"trr":      {"entries": "28", "every": "4", "sample": "16"},
		"mithril":  {"entries": "2048", "every": "1"},
		"mopac":    {"p": "0.1", "ath": "0"},
		"mirza": {
			"fth":     fmt.Sprint(mirzaCfg.FTH),
			"window":  fmt.Sprint(mirzaCfg.MINTWindow),
			"regions": fmt.Sprint(mirzaCfg.Regions),
			"queue":   fmt.Sprint(mirzaCfg.QueueSize),
			"qth":     fmt.Sprint(mirzaCfg.QTH),
			"reset":   mirzaCfg.ResetPolicy.String(),
		},
		"naive-mirza": {"fth": "0"},
	}
	for name, params := range want {
		b := buildDefault(t, name, trhd)
		got := b.Params()
		for key, val := range params {
			if got[key] != val {
				t.Errorf("%s: default %s = %q, want %q", name, key, got[key], val)
			}
		}
	}
}

// TestTimingAndRFMOverlays pins which policies demand the PRAC timing
// overlay and which drive the memory controller's RFM cadence.
func TestTimingAndRFMOverlays(t *testing.T) {
	const trhd = 1000
	pracTRC := dram.PRAC().TRC
	ddr5TRC := dram.DDR5().TRC
	for _, name := range []string{"prac", "mopac"} {
		if got := buildDefault(t, name, trhd).Timing().TRC; got != pracTRC {
			t.Errorf("%s: TRC = %v, want PRAC overlay %v", name, got, pracTRC)
		}
	}
	for _, name := range []string{"none", "mint-ref", "trr", "mithril", "mirza", "graphene", "oracle"} {
		if got := buildDefault(t, name, trhd).Timing().TRC; got != ddr5TRC {
			t.Errorf("%s: TRC = %v, want plain DDR5 %v", name, got, ddr5TRC)
		}
	}
	w := security.DefaultMINTModel().WindowForTRHD(trhd)
	for _, name := range []string{"mint-rfm", "loaded-dice"} {
		if got := buildDefault(t, name, trhd).RFMBAT(); got != w {
			t.Errorf("%s: RFMBAT = %d, want MINT window %d", name, got, w)
		}
	}
	for _, name := range []string{"prac", "mirza", "graphene", "oracle", "none"} {
		if got := buildDefault(t, name, trhd).RFMBAT(); got != 0 {
			t.Errorf("%s: RFMBAT = %d, want 0 (no RFM cadence)", name, got)
		}
	}
}

// TestBoundsAreMeaningful checks each secure policy declares a positive
// bound of the right analytic family, and insecure ones are flagged.
func TestBoundsAreMeaningful(t *testing.T) {
	const trhd = 1000
	cases := map[string]int{
		"prac":        trhd,           // deterministic: provisioned TRHD
		"oracle":      2 * (trhd / 2), // 2T at threshold T
		"graphene":    4 * (trhd / 4), // Misra-Gries 4T
		"mirza":       0,              // SafeTRHD, positive
		"mint-rfm":    0,              // MINT analytic, positive
		"loaded-dice": 0,              // MINT analytic, positive
	}
	for name, exact := range cases {
		b := buildDefault(t, name, trhd)
		bound := b.Bound()
		if bound.TRHD <= 0 {
			t.Errorf("%s: bound %d not positive", name, bound.TRHD)
		}
		if exact != 0 && bound.TRHD != exact {
			t.Errorf("%s: bound = %d, want %d", name, bound.TRHD, exact)
		}
		if b.Insecure() {
			t.Errorf("%s: unexpectedly flagged insecure", name)
		}
	}
	for _, name := range []string{"none", "trr"} {
		if !buildDefault(t, name, trhd).Insecure() {
			t.Errorf("%s: not flagged insecure", name)
		}
	}
}

// TestInstancesExposeStats ensures every registered policy's instance is
// visible to telemetry and the auditor.
func TestInstancesExposeStats(t *testing.T) {
	for _, name := range track.Names() {
		b := buildDefault(t, name, 1000)
		m, err := b.NewMitigator(0, track.NopSink{})
		if err != nil {
			t.Fatalf("%s: NewMitigator: %v", name, err)
		}
		if m.Name() == "" {
			t.Errorf("%s: instance has an empty Name()", name)
		}
		if track.Source(m) == nil {
			t.Errorf("%s: instance exposes no StatsSource", name)
		}
	}
}

// TestPerRowThresholdsFitCounters pins the 16-bit limit of the per-row
// counters: PRAC alerts after exactly ATH ACTs at the largest ATH they
// hold, and thresholds a counter could not reach fail to build, naming the
// limit, instead of wrapping silently.
func TestPerRowThresholdsFitCounters(t *testing.T) {
	cfg := track.Config{Geometry: dram.Default(), Mapping: dram.StridedR2SA, TRHD: 1000, Seed: 1}
	b, err := track.Build("prac", map[string]string{"ath": "65535"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.NewMitigator(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= track.MaxRowCount; i++ {
		m.OnActivate(0, 42, 0)
		if m.WantsALERT() != (i == track.MaxRowCount) {
			t.Fatalf("prac:ath=65535: WantsALERT = %v after %d ACTs", m.WantsALERT(), i)
		}
	}
	for _, c := range []struct {
		name   string
		params map[string]string
	}{
		{"prac", map[string]string{"ath": "65536"}},
		{"mopac", map[string]string{"ath": "65535", "p": "0.5"}},
		{"mopac", map[string]string{"p": "0.00001", "ath": "100"}},
	} {
		b, err := track.Build(c.name, c.params, cfg)
		if err == nil {
			_, err = b.NewMitigator(0, nil)
		}
		if err == nil || !strings.Contains(err.Error(), "65535") {
			t.Errorf("%s %v: error %v, want one naming the limit 65535", c.name, c.params, err)
		}
	}
}

// TestPerRowBoundsFollowATH: PRAC's and MoPAC's bound is the provisioned
// TRHD only while the ATH is at most that TRHD's; a raised ATH reports the
// threshold it actually tolerates.
func TestPerRowBoundsFollowATH(t *testing.T) {
	cfg := track.Config{Geometry: dram.Default(), Mapping: dram.StridedR2SA, TRHD: 1000, Seed: 1}
	for _, c := range []struct {
		name   string
		params map[string]string
		want   int
	}{
		{"prac", nil, 1000},
		{"prac", map[string]string{"ath": "100"}, 1000},
		{"prac", map[string]string{"ath": "492"}, 1000}, // ATHForTRHD(1000)
		{"prac", map[string]string{"ath": "493"}, 1002}, // 2*(ATH+8)
		{"prac", map[string]string{"ath": "2000"}, 4016},
		{"mopac", nil, 1000},
		{"mopac", map[string]string{"ath": "226"}, 1000},              // MoPACDeratedATH(1000, 0.1)
		{"mopac", map[string]string{"ath": "227"}, 1002},              // MoPACDeratedATH(1002, 0.1) = 227
		{"mopac", map[string]string{"ath": "1000"}, 2932},             // MoPACDeratedATH(2932, 0.1) = 1000
		{"mopac", map[string]string{"ath": "2000", "p": "0.5"}, 4390}, // MoPACDeratedATH(4390, 0.5) = 2000
		{"mopac", map[string]string{"ath": "493", "p": "1"}, 1002},    // unsampled: PRAC's bound
	} {
		b, err := track.Build(c.name, c.params, cfg)
		if err != nil {
			t.Fatalf("%s %v: %v", c.name, c.params, err)
		}
		if got := b.Bound(); got.TRHD != c.want {
			t.Errorf("%s %v: bound %d (%s), want %d", c.name, c.params, got.TRHD, got.Kind, c.want)
		}
	}
}
