package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestExperimentsBackendPrepareValidation(t *testing.T) {
	b := &ExperimentsBackend{}
	cases := []struct {
		name    string
		req     Request
		wantErr string // substring; "" means valid
	}{
		{"missing experiment", Request{}, "required"},
		{"unknown experiment", Request{Experiment: "figNaN"}, "unknown id"},
		{"bad fault plan", Request{Experiment: "fig3", Faults: "zzzz"}, "faults"},
		{"negative measure", Request{Experiment: "fig3", MeasureMS: -1}, "non-negative"},
		{"negative warmup", Request{Experiment: "fig3", WarmupMS: -0.5}, "non-negative"},
		{"overflowing measure", Request{Experiment: "fig3", MeasureMS: 1e300}, "measure_ms"},
		{"sub-picosecond measure", Request{Experiment: "fig3", MeasureMS: 1e-13}, "shorter than a picosecond"},
		{"one replay window", Request{Experiment: "fig3", ReplayWindows: 1}, "replay_windows"},
		{"negative timeout", Request{Experiment: "fig3", TimeoutMS: -3}, "timeout_ms"},
		{"unknown workload", Request{Experiment: "fig3", Workloads: []string{"quake"}}, "quake"},
		{"unknown mitigation", Request{Experiment: "baselines", Mitigations: []string{"zilch"}}, "unknown mitigation"},
		{"bad tenants spec", Request{Experiment: "intervm", Tenants: "quake:2"}, "unknown workload"},
		{"two attackers", Request{Experiment: "intervm", Tenants: "attack=edge+attack=double"}, "more than one attacker"},
		{"missing trace file", Request{Experiment: "tracereplay", Trace: []string{"/no/such/file.trace"}}, "trace"},
		{"valid tenants", Request{Experiment: "intervm", Tenants: "xz:2+attack=edge:2"}, ""},
		{"valid mitigations", Request{Experiment: "baselines", Mitigations: []string{"PRAC", "graphene"}}, ""},
		{"valid minimal", Request{Experiment: "fig3"}, ""},
		{"valid full", Request{Experiment: "fig3", Quick: true, Seed: 9,
			Workloads: []string{"xz", "mcf"}, MeasureMS: 0.5, ReplayWindows: 2,
			Faults: "seed=7"}, ""},
	}
	for _, tc := range cases {
		p, err := b.Prepare(&tc.req)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
				continue
			}
			if p.Key == "" || p.Seed == 0 || len(p.Config) == 0 {
				t.Errorf("%s: incomplete Prepared: %+v", tc.name, p)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestExperimentsBackendKeyIsConfigSensitive(t *testing.T) {
	b := &ExperimentsBackend{}
	base := Request{Experiment: "fig3", Seed: 1, Workloads: []string{"xz"}}
	p0, err := b.Prepare(&base)
	if err != nil {
		t.Fatal(err)
	}
	// Same request → same key (and a fresh Prepare, so no shared state).
	again := base
	p1, _ := b.Prepare(&again)
	if p0.Key != p1.Key {
		t.Errorf("identical requests got different keys: %s vs %s", p0.Key, p1.Key)
	}
	// Every result-affecting knob must move the key.
	variants := []Request{
		{Experiment: "fig6", Seed: 1, Workloads: []string{"xz"}},
		{Experiment: "fig3", Seed: 2, Workloads: []string{"xz"}},
		{Experiment: "fig3", Seed: 1, Workloads: []string{"mcf"}},
		{Experiment: "fig3", Seed: 1, Workloads: []string{"xz"}, MeasureMS: 0.5},
		{Experiment: "fig3", Seed: 1, Workloads: []string{"xz"}, Faults: "seed=3"},
		{Experiment: "fig3", Seed: 1, Workloads: []string{"xz"}, Audit: true},
		{Experiment: "fig3", Seed: 1, Workloads: []string{"xz"}, Mitigations: []string{"oracle"}},
	}
	for i, v := range variants {
		req := v
		p, err := b.Prepare(&req)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if p.Key == p0.Key {
			t.Errorf("variant %d (%+v) did not change the key", i, v)
		}
	}
	// Wall-clock-only knobs must NOT move the key: they cannot change the
	// deterministic result, and splitting the cache on them would defeat it.
	timed := base
	timed.TimeoutMS = 60000
	p2, _ := b.Prepare(&timed)
	if p2.Key != p0.Key {
		t.Errorf("timeout_ms changed the key: %s vs %s", p2.Key, p0.Key)
	}
	// Mitigation names are canonicalized before hashing: casing must not
	// split the cache.
	upper := base
	upper.Mitigations = []string{"ORACLE"}
	lower := base
	lower.Mitigations = []string{"oracle"}
	pu, _ := b.Prepare(&upper)
	pl, _ := b.Prepare(&lower)
	if pu.Key != pl.Key {
		t.Errorf("mitigation casing changed the key: %s vs %s", pu.Key, pl.Key)
	}
	if pu.Config["mitigations"] != "oracle" {
		t.Errorf("mitigations not canonicalized: %q", pu.Config["mitigations"])
	}
}

// TestExperimentsBackendTraceAndTenantKeys pins the admission semantics
// of the two by-reference inputs: the tenant spec is canonicalized before
// hashing, and a trace job's identity is the trace *content*, so renaming
// or moving a file never splits (or wrongly serves) the cache.
func TestExperimentsBackendTraceAndTenantKeys(t *testing.T) {
	b := &ExperimentsBackend{}

	spelled := Request{Experiment: "intervm", Tenants: "xz + attack=edge : 2"}
	canonical := Request{Experiment: "intervm", Tenants: "xz:1+attack=edge:2"}
	ps, err := b.Prepare(&spelled)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := b.Prepare(&canonical)
	if ps.Key != pc.Key {
		t.Errorf("equivalent tenant spellings keyed differently: %s vs %s", ps.Key, pc.Key)
	}
	if ps.Config["tenants"] != "xz:1+attack=edge:2" {
		t.Errorf("tenants not canonicalized: %q", ps.Config["tenants"])
	}

	dir := t.TempDir()
	a := filepath.Join(dir, "a.trace")
	if err := os.WriteFile(a, []byte("0x0 READ 0\n0x1000 READ 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p0, err := b.Prepare(&Request{Experiment: "tracereplay", Trace: []string{a}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p0.Config["traces"], "a.trace:") {
		t.Errorf("trace config %q lacks the content id", p0.Config["traces"])
	}
	// Same bytes under the same basename elsewhere: same computation.
	other := filepath.Join(dir, "sub")
	if err := os.Mkdir(other, 0o755); err != nil {
		t.Fatal(err)
	}
	copied := filepath.Join(other, "a.trace")
	if err := os.WriteFile(copied, []byte("0x0 READ 0\n0x1000 READ 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p1, _ := b.Prepare(&Request{Experiment: "tracereplay", Trace: []string{copied}})
	if p0.Key != p1.Key {
		t.Errorf("identical trace content keyed differently: %s vs %s", p0.Key, p1.Key)
	}
	// Different content at the same path: different computation.
	if err := os.WriteFile(a, []byte("0x0 READ 0\n0x2000 WRITE 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p2, _ := b.Prepare(&Request{Experiment: "tracereplay", Trace: []string{a}})
	if p2.Key == p0.Key {
		t.Errorf("changed trace content did not change the key")
	}
}

// TestExperimentsBackendRoundTrip drives a real (tiny) fig3 run through
// the full daemon stack twice and pins the cache guarantee end to end:
// the second submission is a hit and its bytes equal the fresh run's.
func TestExperimentsBackendRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation round trip; skipped in -short")
	}
	backend := &ExperimentsBackend{Parallelism: 2}
	_, ts := newTestServer(t, Config{Workers: 1, DrainBudget: 30 * time.Second}, backend)

	body := `{"experiment":"fig3","seed":1,"quick":true,"workloads":["xz"],"measure_ms":0.2,"warmup_ms":0.1}`
	code, doc, _ := submit(t, ts, body, true)
	if code != http.StatusOK || doc["state"] != "done" || doc["error"] != nil {
		t.Fatalf("fresh run: %d %v", code, doc)
	}
	if doc["degraded"] == true {
		t.Fatal("tiny fig3 run unexpectedly degraded")
	}
	key := doc["key"].(string)
	_, fresh, hdr := fetchResult(t, ts, doc["id"].(string))
	if hdr.Get("X-Mirza-Cache") != "miss" {
		t.Errorf("first run: cache header %q, want miss", hdr.Get("X-Mirza-Cache"))
	}

	var m map[string]any
	if err := json.Unmarshal(fresh, &m); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if m["tool"] != "mirza-serve" || m["seed"] != float64(1) {
		t.Errorf("manifest tool/seed = %v/%v", m["tool"], m["seed"])
	}
	// The served key is derived from the manifest's own config hash.
	if hash, ok := m["config_hash"].(string); !ok || key != fmt.Sprintf("%s-1", hash) {
		t.Errorf("key %q does not match manifest config_hash %v", key, m["config_hash"])
	}
	// Canonical form: wall-clock fields are stripped before serving.
	if m["wall_clock_seconds"] != nil && m["wall_clock_seconds"] != float64(0) {
		t.Errorf("served manifest carries wall clock: %v", m["wall_clock_seconds"])
	}

	code, doc2, _ := submit(t, ts, body, true)
	if code != http.StatusOK || doc2["cached"] != true {
		t.Fatalf("second run not cached: %d %v", code, doc2)
	}
	_, cached, hdr2 := fetchResult(t, ts, doc2["id"].(string))
	if hdr2.Get("X-Mirza-Cache") != "hit" {
		t.Errorf("second run: cache header %q, want hit", hdr2.Get("X-Mirza-Cache"))
	}
	if !bytes.Equal(fresh, cached) {
		t.Errorf("cached bytes differ from fresh run:\nfresh: %s\ncached: %s", fresh, cached)
	}
}
