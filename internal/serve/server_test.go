package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer builds a Server over backend plus an httptest front end.
// Cleanup drains the server (releasing its workers) and closes the
// listener.
func newTestServer(t *testing.T, cfg Config, backend Backend) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Backend = backend
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.DrainBudget == 0 {
		cfg.DrainBudget = 2 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		_ = s.Drain(0)
		ts.Close()
	})
	return s, ts
}

// doJSON performs a request and decodes the JSON response body.
func doJSON(t *testing.T, method, url, body string) (int, map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s %s: non-JSON response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, doc, resp.Header
}

func submit(t *testing.T, ts *httptest.Server, body string, wait bool) (int, map[string]any, http.Header) {
	t.Helper()
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	return doJSON(t, http.MethodPost, url, body)
}

// fetchResult returns the raw /result body and response for a job id.
func fetchResult(t *testing.T, ts *httptest.Server, id string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// waitNoGoroutineLeak retries until the goroutine count settles back to
// (roughly) the baseline: HTTP keep-alives and test plumbing wind down
// asynchronously.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, n, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSubmitWaitRoundTrip(t *testing.T) {
	fb := newFakeBackend()
	s, ts := newTestServer(t, Config{Workers: 2}, fb)

	code, doc, _ := submit(t, ts, `{"experiment":"alpha","seed":7}`, true)
	if code != http.StatusOK {
		t.Fatalf("submit: code %d doc %v", code, doc)
	}
	if doc["state"] != "done" || doc["cached"] == true {
		t.Fatalf("unexpected status: %v", doc)
	}
	id := doc["id"].(string)
	rcode, body, hdr := fetchResult(t, ts, id)
	if rcode != http.StatusOK {
		t.Fatalf("result: code %d body %s", rcode, body)
	}
	if hdr.Get("X-Mirza-Cache") != "miss" {
		t.Errorf("fresh result should be a cache miss, header %q", hdr.Get("X-Mirza-Cache"))
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("manifest is not JSON: %v", err)
	}
	if m["seed"] != float64(7) {
		t.Errorf("manifest seed = %v, want 7", m["seed"])
	}

	// Identical resubmission: served from cache, byte-for-byte.
	code2, doc2, _ := submit(t, ts, `{"experiment":"alpha","seed":7}`, true)
	if code2 != http.StatusOK || doc2["cached"] != true {
		t.Fatalf("resubmit not cached: code %d doc %v", code2, doc2)
	}
	_, body2, hdr2 := fetchResult(t, ts, doc2["id"].(string))
	if !bytes.Equal(body, body2) {
		t.Errorf("cached result differs from fresh:\n%s\nvs\n%s", body, body2)
	}
	if hdr2.Get("X-Mirza-Cache") != "hit" {
		t.Errorf("want cache hit header, got %q", hdr2.Get("X-Mirza-Cache"))
	}
	if got := fb.runCount(doc["key"].(string)); got != 1 {
		t.Errorf("backend ran %d times, want 1", got)
	}
	snap := s.Registry().Snapshot()
	if snap.CounterTotal("serve_cache_hits_total") != 1 || snap.CounterTotal("serve_cache_misses_total") != 1 {
		t.Errorf("cache counters off: hits=%d misses=%d",
			snap.CounterTotal("serve_cache_hits_total"), snap.CounterTotal("serve_cache_misses_total"))
	}
	// A different seed is a different computation.
	code3, doc3, _ := submit(t, ts, `{"experiment":"alpha","seed":8}`, true)
	if code3 != http.StatusOK || doc3["cached"] == true {
		t.Fatalf("different seed must not hit the cache: %v", doc3)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, newFakeBackend())
	for _, body := range []string{
		``,                              // empty
		`{`,                             // malformed
		`{"experiment":""}`,             // missing id
		`{"experiment":"invalid-x"}`,    // backend rejects
		`{"experiment":"a","zzz":true}`, // unknown field
	} {
		code, doc, _ := submit(t, ts, body, false)
		if code != http.StatusBadRequest {
			t.Errorf("body %q: code %d (doc %v), want 400", body, code, doc)
		}
		if code == http.StatusBadRequest && doc["error"] == "" {
			t.Errorf("body %q: empty error message", body)
		}
	}
}

func TestBackpressureShedsWith429(t *testing.T) {
	fb := newFakeBackend()
	release := fb.blockOn("blocked")
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2}, fb)

	// First job occupies the worker...
	_, doc1, _ := submit(t, ts, `{"experiment":"blocked"}`, false)
	select {
	case <-fb.started:
	case <-time.After(2 * time.Second):
		t.Fatal("job never started")
	}
	// ...two more fill the queue...
	_, doc2, _ := submit(t, ts, `{"experiment":"blocked","seed":2}`, false)
	_, doc3, _ := submit(t, ts, `{"experiment":"blocked","seed":3}`, false)
	// Regression: with sub-second jobs the EWMA wall-clock is tiny; the
	// Retry-After computed from it must still clamp to >= 1 second, or
	// shed clients retry immediately and re-shed in a tight loop.
	s.avgRunMS.Store(1)
	// ...and the fourth is shed with explicit backpressure.
	code, doc, hdr := submit(t, ts, `{"experiment":"blocked","seed":4}`, false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d (%v)", code, doc)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("429 Retry-After = %q, want an integer >= 1 even with a sub-second job EWMA", hdr.Get("Retry-After"))
	}
	if ra, ok := doc["retry_after_seconds"].(float64); !ok || ra < 1 {
		t.Errorf("429 doc retry_after_seconds = %v, want >= 1", doc["retry_after_seconds"])
	}
	// Overload is reported honestly.
	rcode, rdoc, _ := doJSON(t, http.MethodGet, ts.URL+"/readyz", "")
	if rcode != http.StatusServiceUnavailable {
		t.Errorf("readyz under overload: code %d doc %v, want 503", rcode, rdoc)
	}
	snap := s.Registry().Snapshot()
	if snap.CounterTotal("serve_shed_total") != 1 {
		t.Errorf("serve_shed_total = %d, want 1", snap.CounterTotal("serve_shed_total"))
	}
	if snap.GaugeTotal("serve_queue_depth") != 2 {
		t.Errorf("serve_queue_depth = %d, want 2", snap.GaugeTotal("serve_queue_depth"))
	}

	close(release)
	// Everything admitted completes; readiness recovers. Readiness is
	// only asserted once all three admitted jobs are done: right after the
	// first completes the worker may not have dequeued the next, and the
	// queue still reads full.
	deadline := time.Now().Add(2 * time.Second)
	for _, doc := range []map[string]any{doc1, doc2, doc3} {
		for {
			code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc["id"].(string)+"?wait=1", "")
			if code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("admitted job %v never completed after release", doc["id"])
			}
		}
	}
	if rcode, _, _ := doJSON(t, http.MethodGet, ts.URL+"/readyz", ""); rcode != http.StatusOK {
		t.Errorf("readyz after recovery: %d, want 200", rcode)
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	fb := newFakeBackend()
	release := fb.blockOn("shared")
	s, ts := newTestServer(t, Config{Workers: 2}, fb)

	type res struct {
		code int
		doc  map[string]any
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, doc, _ := submit(t, ts, `{"experiment":"shared"}`, true)
			results <- res{code, doc}
		}()
	}
	select {
	case <-fb.started:
	case <-time.After(2 * time.Second):
		t.Fatal("job never started")
	}
	// Hold the job until the second submission has demonstrably
	// coalesced onto it, then release.
	deadline := time.Now().Add(2 * time.Second)
	for s.Registry().Snapshot().CounterTotal("serve_coalesced_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second submission never coalesced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	var ids, keys []string
	coalesced := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK || r.doc["state"] != "done" {
			t.Fatalf("waiter got %d %v", r.code, r.doc)
		}
		ids = append(ids, r.doc["id"].(string))
		keys = append(keys, r.doc["key"].(string))
		if r.doc["coalesced"] == true {
			coalesced++
		}
	}
	if ids[0] != ids[1] || keys[0] != keys[1] {
		t.Fatalf("coalesced submissions got different jobs: %v %v", ids, keys)
	}
	if got := fb.runCount(keys[0]); got != 1 {
		t.Errorf("backend ran %d times for one key, want 1 (single-flight)", got)
	}
	if coalesced != 1 {
		t.Errorf("%d submissions flagged coalesced, want exactly 1", coalesced)
	}
	snap := s.Registry().Snapshot()
	if snap.CounterTotal("serve_coalesced_total") != 1 {
		t.Errorf("serve_coalesced_total = %d, want 1", snap.CounterTotal("serve_coalesced_total"))
	}
}

func TestClientDisconnectCancelsJob(t *testing.T) {
	fb := newFakeBackend()
	fb.blockOn("lonely") // never released: only cancellation ends it
	s, ts := newTestServer(t, Config{Workers: 1}, fb)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/jobs?wait=1", strings.NewReader(`{"experiment":"lonely"}`))
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-fb.started:
	case <-time.After(2 * time.Second):
		t.Fatal("job never started")
	}
	cancel() // client walks away mid-flight
	if err := <-errc; err == nil {
		t.Fatal("expected the canceled request to error")
	}

	// The abandoned job is canceled and recorded as such.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, doc, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j1", "")
		if doc["state"] == "done" {
			if doc["canceled"] != true {
				t.Fatalf("abandoned job not canceled: %v", doc)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned job never finished: %v", doc)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.Registry().Snapshot().CounterTotal("serve_abandoned_total"); n != 1 {
		t.Errorf("serve_abandoned_total = %d, want 1", n)
	}
	// The key was released from single-flight: an identical submission
	// starts a fresh run rather than attaching to the canceled record.
	fb.mu.Lock()
	delete(fb.blocked, "lonely")
	fb.mu.Unlock()
	code, doc, _ := submit(t, ts, `{"experiment":"lonely"}`, true)
	if code != http.StatusOK || doc["state"] != "done" || doc["error"] != nil {
		t.Fatalf("resubmit after abandonment failed: %d %v", code, doc)
	}
	if got := fb.runCount(doc["key"].(string)); got != 2 {
		t.Errorf("backend ran %d times, want 2 (fresh run after abandonment)", got)
	}
}

func TestPanicIsolation(t *testing.T) {
	fb := newFakeBackend()
	s, ts := newTestServer(t, Config{Workers: 1}, fb)

	code, doc, _ := submit(t, ts, `{"experiment":"panic-now"}`, true)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %v", code, doc)
	}
	if doc["state"] != "done" || doc["panicked"] != true || doc["error"] == nil {
		t.Fatalf("panic not surfaced in status: %v", doc)
	}
	rcode, body, _ := fetchResult(t, ts, doc["id"].(string))
	if rcode != http.StatusInternalServerError {
		t.Fatalf("result of panicked job: code %d, want 500", rcode)
	}
	var edoc map[string]any
	if err := json.Unmarshal(body, &edoc); err != nil || edoc["panicked"] != true || edoc["stack"] == nil {
		t.Fatalf("panic error doc incomplete: %s", body)
	}
	// The daemon survived: the next job runs fine on the same worker.
	code, doc, _ = submit(t, ts, `{"experiment":"fine"}`, true)
	if code != http.StatusOK || doc["error"] != nil {
		t.Fatalf("server did not survive the panic: %d %v", code, doc)
	}
	if n := s.Registry().Snapshot().CounterTotal("serve_jobs_total"); n != 2 {
		t.Errorf("serve_jobs_total = %d, want 2", n)
	}
}

// TestJobCountedBeforeWaitReturns: a waiter on a job (a ?wait=1 request,
// or Submit then Done) wakes only after the job is counted in
// serve_jobs_total, so once k waits have returned the counter reads at
// least k. The waits are Submit's: an HTTP round trip after the wake-up
// would hide a late count.
func TestJobCountedBeforeWaitReturns(t *testing.T) {
	const clients, perClient = 8, 50
	fb := newFakeBackend()
	s, _ := newTestServer(t, Config{Workers: 4, Logf: func(string, ...any) {}}, fb)
	var returned atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				prep, err := fb.Prepare(&Request{Experiment: fmt.Sprintf("fine-%d-%d", c, i)})
				if err != nil {
					t.Error(err)
					return
				}
				job, err := s.Submit(prep)
				if err != nil {
					t.Error(err)
					return
				}
				<-job.Done()
				job.Release(false)
				k := returned.Add(1)
				if n := s.Registry().Snapshot().CounterTotal("serve_jobs_total"); n < k {
					t.Errorf("%d waits returned, serve_jobs_total = %d", k, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDegradedResultIsFlaggedAndNeverCached(t *testing.T) {
	fb := newFakeBackend()
	_, ts := newTestServer(t, Config{Workers: 1}, fb)

	code, doc, _ := submit(t, ts, `{"experiment":"degraded-a"}`, true)
	if code != http.StatusOK || doc["degraded"] != true {
		t.Fatalf("degraded flag missing: %d %v", code, doc)
	}
	_, body, hdr := fetchResult(t, ts, doc["id"].(string))
	if hdr.Get("X-Mirza-Degraded") != "true" {
		t.Errorf("degraded result lacks the header")
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil || m["degraded"] != true {
		t.Fatalf("manifest itself must carry the degraded flag: %s", body)
	}
	// Resubmission must re-run: degraded results are never cached.
	code, doc2, _ := submit(t, ts, `{"experiment":"degraded-a"}`, true)
	if code != http.StatusOK || doc2["cached"] == true {
		t.Fatalf("degraded result was served from cache: %v", doc2)
	}
	if got := fb.runCount(doc["key"].(string)); got != 2 {
		t.Errorf("backend ran %d times, want 2 (no caching of degraded results)", got)
	}
}

func TestFailedJobStructuredError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, newFakeBackend())
	code, doc, _ := submit(t, ts, `{"experiment":"fail-x"}`, true)
	if code != http.StatusOK || doc["state"] != "done" {
		t.Fatalf("submit: %d %v", code, doc)
	}
	if doc["error"] == nil || doc["result_url"] != nil {
		t.Fatalf("failed job status wrong: %v", doc)
	}
	rcode, body, _ := fetchResult(t, ts, doc["id"].(string))
	if rcode != http.StatusInternalServerError || !strings.Contains(string(body), "deliberate") {
		t.Fatalf("failed job result: %d %s", rcode, body)
	}
}

func TestDrainStateMachine(t *testing.T) {
	fb := newFakeBackend()
	release := fb.blockOn("slow")
	s, ts := newTestServer(t, Config{Workers: 1, DrainBudget: 5 * time.Second}, fb)

	submit(t, ts, `{"experiment":"slow"}`, false)
	select {
	case <-fb.started:
	case <-time.After(2 * time.Second):
		t.Fatal("job never started")
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(2 * time.Second) }()
	// Admission stops immediately...
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, _, _ := submit(t, ts, `{"experiment":"late"}`, false)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server still admits work")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/readyz", ""); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", code)
	}
	hcode, hdoc, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", "")
	if hcode != http.StatusOK || hdoc["state"] != "draining" {
		t.Errorf("healthz while draining: %d %v", hcode, hdoc)
	}
	// ...in-flight work finishes within the budget and drain completes.
	close(release)
	select {
	case err := <-drainErr:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("drain never completed")
	}
	if s.State() != StateDrained {
		t.Errorf("state after drain = %s", s.State())
	}
	// Reads still work; a second Drain is an idempotent no-op.
	if code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j1", ""); code != http.StatusOK {
		t.Errorf("status read after drain: %d", code)
	}
	if err := s.Drain(time.Second); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestDrainBudgetCancelsStragglers(t *testing.T) {
	fb := newFakeBackend()
	fb.blockOn("stuck") // only cancellation ends it
	s, ts := newTestServer(t, Config{Workers: 1}, fb)
	submit(t, ts, `{"experiment":"stuck"}`, false)
	select {
	case <-fb.started:
	case <-time.After(2 * time.Second):
		t.Fatal("job never started")
	}
	if err := s.Drain(50 * time.Millisecond); err != nil {
		t.Fatalf("drain should cancel the straggler and succeed: %v", err)
	}
	_, doc, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j1", "")
	if doc["state"] != "done" || doc["canceled"] != true {
		t.Errorf("straggler not canceled by drain: %v", doc)
	}
}

func TestRetentionEvictsOldRecords(t *testing.T) {
	fb := newFakeBackend()
	_, ts := newTestServer(t, Config{Workers: 1, Retention: 2}, fb)
	for i := 1; i <= 3; i++ {
		code, doc, _ := submit(t, ts, fmt.Sprintf(`{"experiment":"r%d"}`, i), true)
		if code != http.StatusOK {
			t.Fatalf("submit %d: %d %v", i, code, doc)
		}
	}
	if code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j1", ""); code != http.StatusNotFound {
		t.Errorf("oldest record should be evicted: code %d, want 404", code)
	}
	if code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j3", ""); code != http.StatusOK {
		t.Errorf("recent record evicted too early: code %d", code)
	}
}

// TestJobTimeoutIsCapped: timeout_ms selects the job deadline up to
// MaxJobTimeout, and a value whose millisecond product overflows
// time.Duration is capped too instead of wrapping.
func TestJobTimeoutIsCapped(t *testing.T) {
	s, _ := newTestServer(t, Config{DefaultJobTimeout: time.Minute, MaxJobTimeout: time.Hour}, newFakeBackend())
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, time.Minute},
		{1500, 1500 * time.Millisecond},
		{3600000, time.Hour},
		{3600001, time.Hour},
		{9223372036854776, time.Hour},  // the product wraps to 192 µs
		{12000000000000000, time.Hour}, // the product wraps negative
		{math.MaxInt64, time.Hour},
	} {
		s.mu.Lock()
		rec := s.newRecLocked(&Prepared{Req: &Request{TimeoutMS: tc.ms}})
		s.mu.Unlock()
		if rec.timeout != tc.want {
			t.Errorf("timeout_ms %d: deadline %v, want %v", tc.ms, rec.timeout, tc.want)
		}
	}
}

func TestExplicitCancel(t *testing.T) {
	fb := newFakeBackend()
	fb.blockOn("victim")
	_, ts := newTestServer(t, Config{Workers: 1}, fb)
	_, doc, _ := submit(t, ts, `{"experiment":"victim"}`, false)
	id := doc["id"].(string)
	select {
	case <-fb.started:
	case <-time.After(2 * time.Second):
		t.Fatal("job never started")
	}
	if code, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, ""); code != http.StatusAccepted {
		t.Fatalf("cancel: code %d", code)
	}
	code, doc, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"?wait=1", "")
	if code != http.StatusOK || doc["canceled"] != true {
		t.Fatalf("canceled job: %d %v", code, doc)
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2}, newFakeBackend())
	submit(t, ts, `{"experiment":"l1"}`, true)
	submit(t, ts, `{"experiment":"l2"}`, true)
	code, doc, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	jobs := doc["jobs"].([]any)
	if len(jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(jobs))
	}
	if jobs[0].(map[string]any)["id"] != "j1" || jobs[1].(map[string]any)["id"] != "j2" {
		t.Errorf("list not in submission order: %v", jobs)
	}
}

func TestWatchStreamsUntilDone(t *testing.T) {
	fb := newFakeBackend()
	release := fb.blockOn("watched")
	_, ts := newTestServer(t, Config{Workers: 1}, fb)
	_, doc, _ := submit(t, ts, `{"experiment":"watched"}`, false)
	id := doc["id"].(string)
	select {
	case <-fb.started:
	case <-time.After(2 * time.Second):
		t.Fatal("job never started")
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(release)
	}()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 1 {
		t.Fatalf("watch produced no updates: %q", raw)
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("watch line not JSON: %q", lines[len(lines)-1])
	}
	if last["state"] != "done" {
		t.Errorf("watch did not end with the terminal status: %v", last)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{}, newFakeBackend())
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/watch"} {
		if code, _, _ := doJSON(t, http.MethodGet, ts.URL+path, ""); code != http.StatusNotFound {
			t.Errorf("%s: code %d, want 404", path, code)
		}
	}
}

func TestMitigationsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{}, newFakeBackend())
	for _, path := range []string{"/v1/mitigations", "/mitigations"} {
		code, doc, _ := doJSON(t, http.MethodGet, ts.URL+path, "")
		if code != http.StatusOK {
			t.Fatalf("%s: code %d, want 200", path, code)
		}
		list, ok := doc["mitigations"].([]any)
		if !ok || len(list) < 10 {
			t.Fatalf("%s: expected a list of registered policies, got %v", path, doc["mitigations"])
		}
		byName := map[string]map[string]any{}
		for _, item := range list {
			m := item.(map[string]any)
			byName[m["name"].(string)] = m
		}
		for _, want := range []string{"mirza", "prac", "graphene", "oracle", "loaded-dice"} {
			if _, ok := byName[want]; !ok {
				t.Errorf("%s: policy %q missing from listing", path, want)
			}
		}
		if doc := byName["prac"]["doc"]; doc == nil || doc == "" {
			t.Errorf("prac has no doc string")
		}
		if params, ok := byName["prac"]["params"].([]any); !ok || len(params) == 0 {
			t.Errorf("prac listing has no params schema")
		}
		if byName["trr"]["insecure"] != true {
			t.Errorf("trr not flagged insecure in listing")
		}
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{}, newFakeBackend())
	for _, path := range []string{"/v1/experiments", "/experiments"} {
		code, doc, _ := doJSON(t, http.MethodGet, ts.URL+path, "")
		if code != http.StatusOK {
			t.Fatalf("%s: code %d, want 200", path, code)
		}
		list, ok := doc["experiments"].([]any)
		if !ok || len(list) < 15 {
			t.Fatalf("%s: expected the experiment registry, got %v", path, doc["experiments"])
		}
		byID := map[string]map[string]any{}
		for _, item := range list {
			m := item.(map[string]any)
			byID[m["id"].(string)] = m
		}
		for _, want := range []string{"table8", "fig3", "baselines", "intervm", "tracereplay"} {
			if _, ok := byID[want]; !ok {
				t.Errorf("%s: experiment %q missing from listing", path, want)
			}
		}
		if desc := byID["intervm"]["description"]; desc == nil || desc == "" {
			t.Errorf("intervm has no description")
		}
	}
}

func TestSubmitUnknownMitigationIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{}, &ExperimentsBackend{})
	code, doc, _ := submit(t, ts, `{"experiment":"baselines","mitigations":["zilch"]}`, false)
	if code != http.StatusBadRequest {
		t.Fatalf("code %d, want 400 (doc %v)", code, doc)
	}
	msg, _ := doc["error"].(string)
	if !strings.Contains(msg, "unknown mitigation") || !strings.Contains(msg, "zilch") {
		t.Errorf("error %q does not name the unknown mitigation", msg)
	}
}

func TestResultBeforeDoneIs409(t *testing.T) {
	fb := newFakeBackend()
	release := fb.blockOn("pending")
	_, ts := newTestServer(t, Config{Workers: 1}, fb)
	_, doc, _ := submit(t, ts, `{"experiment":"pending"}`, false)
	code, _, _ := fetchResult(t, ts, doc["id"].(string))
	if code != http.StatusConflict {
		t.Errorf("result of unfinished job: code %d, want 409", code)
	}
	close(release)
}
