package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mirza/internal/provenance"
	"mirza/internal/serve"
	"mirza/internal/telemetry"
)

// fanBackend is a scriptable serve.Backend for fan tests: experiment
// names prefixed "bad" fail Prepare, "fail" fail Run, everything else
// yields a small deterministic canonical manifest.
type fanBackend struct{}

func (b *fanBackend) Prepare(req *serve.Request) (*serve.Prepared, error) {
	if strings.HasPrefix(req.Experiment, "bad") {
		return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	config := map[string]string{
		"exp":         req.Experiment,
		"workloads":   strings.Join(req.Workloads, ","),
		"mitigations": strings.Join(req.Mitigations, ","),
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	return &serve.Prepared{
		Req:    req,
		Config: config,
		Seed:   seed,
		Key:    fmt.Sprintf("%s-%d", telemetry.ConfigHash(config), seed),
	}, nil
}

func (b *fanBackend) Run(ctx context.Context, p *serve.Prepared) *serve.Outcome {
	if strings.HasPrefix(p.Req.Experiment, "fail") {
		return &serve.Outcome{Err: "scripted failure"}
	}
	m := telemetry.NewManifest("fake", p.Config)
	m.Seed = p.Seed
	body, err := m.Canonical().JSON()
	if err != nil {
		return &serve.Outcome{Err: err.Error()}
	}
	return &serve.Outcome{Manifest: body}
}

// newFanServer builds a daemon with the fan endpoint mounted, ready to
// receive POST /v1/sweep.
func newFanServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(serve.Config{Backend: &fanBackend{}, Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv.Handle("POST /v1/sweep", FanHandler(srv, FanConfig{MaxInFlight: 3}))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Drain(0)
	})
	return srv, ts
}

func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, []map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var doc map[string]any
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("non-JSON NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, doc)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

func TestFanStreamsShardsInOrder(t *testing.T) {
	_, ts := newFanServer(t)
	resp, lines := postSweep(t, ts, `{"experiments":["alpha","beta"],"seeds":{"from":1,"to":2}}`)
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if len(lines) != 6 { // header + 4 shards + done
		t.Fatalf("got %d NDJSON lines, want 6: %v", len(lines), lines)
	}
	if lines[0]["shards"] != float64(4) {
		t.Fatalf("header line = %v", lines[0])
	}
	wantIDs := []string{"alpha/s=1", "alpha/s=2", "beta/s=1", "beta/s=2"}
	var leaves []provenance.Hash
	for i, want := range wantIDs {
		doc := lines[i+1]
		if doc["index"] != float64(i) || doc["shard"] != want {
			t.Fatalf("shard line %d = %v, want index %d shard %q", i, doc, i, want)
		}
		if e, ok := doc["error"]; ok {
			t.Fatalf("shard %s failed: %v", want, e)
		}
		leaf, err := provenance.ParseHash(doc["leaf"].(string))
		if err != nil {
			t.Fatalf("shard %s leaf: %v", want, err)
		}
		leaves = append(leaves, leaf)
	}
	done := lines[5]
	if done["done"] != true || done["ok"] != float64(4) || done["failed"] != nil && done["failed"] != float64(0) {
		t.Fatalf("done line = %v", done)
	}
	// The streamed root must be the Merkle root over the shard manifests
	// in enumeration order — the same root a local ledger of the same
	// sweep records.
	if got, want := done["root"], provenance.Root(leaves).String(); got != want {
		t.Fatalf("done root = %v, want %s", got, want)
	}
}

func TestFanMatchesBackendManifests(t *testing.T) {
	_, ts := newFanServer(t)
	_, lines := postSweep(t, ts, `{"experiments":["alpha"],"seeds":{"from":3,"to":3}}`)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	// Recompute the shard's manifest directly through the backend: the
	// fanned leaf must be the leaf hash of those exact bytes.
	b := &fanBackend{}
	prep, err := b.Prepare(&serve.Request{Experiment: "alpha", Seed: 3, NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	out := b.Run(context.Background(), prep)
	want := provenance.LeafHash(out.Manifest).String()
	if got := lines[1]["leaf"]; got != want {
		t.Fatalf("fanned leaf = %v, locally recomputed leaf = %s", got, want)
	}
	if got := lines[1]["key"]; got != prep.Key {
		t.Fatalf("fanned key = %v, want %s", got, prep.Key)
	}
}

func TestFanReportsShardFailuresWithoutRoot(t *testing.T) {
	_, ts := newFanServer(t)
	_, lines := postSweep(t, ts, `{"experiments":["alpha","failing"],"seeds":{"from":1,"to":1}}`)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	if e, ok := lines[2]["error"].(string); !ok || !strings.Contains(e, "scripted failure") {
		t.Fatalf("failing shard line = %v", lines[2])
	}
	done := lines[3]
	if done["ok"] != float64(1) || done["failed"] != float64(1) {
		t.Fatalf("done line = %v", done)
	}
	if _, ok := done["root"]; ok {
		t.Fatalf("partial sweep must not report a provable root: %v", done)
	}
}

func TestFanRejectsBadGrids(t *testing.T) {
	_, ts := newFanServer(t)
	cases := map[string]string{
		"malformed":      `{"experiments":`,
		"unknown-field":  `{"experiments":["alpha"],"nope":1}`,
		"empty-grid":     `{}`,
		"bad-experiment": `{"experiments":["badx"]}`,
		"seed-overflow":  `{"experiments":["alpha"],"seeds":{"from":1,"to":18446744073709551615}}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			resp, _ := postSweep(t, ts, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestFanCoalescesAndCaches(t *testing.T) {
	_, ts := newFanServer(t)
	// First sweep populates the daemon cache; an identical second sweep
	// must be served from it with the identical root.
	_, first := postSweep(t, ts, `{"experiments":["alpha"],"seeds":{"from":1,"to":3}}`)
	_, second := postSweep(t, ts, `{"experiments":["alpha"],"seeds":{"from":1,"to":3}}`)
	d1, d2 := first[len(first)-1], second[len(second)-1]
	if d1["root"] != d2["root"] || d1["root"] == nil {
		t.Fatalf("repeated sweep root drifted: %v vs %v", d1["root"], d2["root"])
	}
	cachedAny := false
	for _, doc := range second[1 : len(second)-1] {
		if doc["cached"] == true {
			cachedAny = true
		}
	}
	if !cachedAny {
		t.Fatalf("second sweep hit the cache for no shard: %v", second)
	}
}
