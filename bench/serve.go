package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mirza/internal/serve"
	"mirza/internal/telemetry"
)

// staticExperiments are quick static experiments: cheap to compute, so a
// cache miss on one costs the daemon's own path (admission, the job queue,
// a worker, the experiment harness, manifest rendering, the cache insert)
// rather than a simulation.
var staticExperiments = []string{"table1", "table2", "table7", "table10", "table11", "table12"}

const (
	serveRate    = 100.0 // requests per second, open loop
	serveSetups  = 5     // daemons set up per run; set-up time is their median
	refInterval  = 100 * time.Millisecond
	drainTimeout = 10 * time.Second
)

// refSampler times the reference loop every interval until stopped,
// keeping the latest time. The serve load reads it for each request: the
// loop runs alongside the load, as the simulation workloads' runs before
// each op, but never delays a request.
type refSampler struct {
	latest atomic.Uint64 // math.Float64bits of the last time, ms
	stop   chan struct{}
	done   chan struct{}
}

func startRefSampler(interval time.Duration) *refSampler {
	s := &refSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.latest.Store(math.Float64bits(timeRef()))
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.latest.Store(math.Float64bits(timeRef()))
			}
		}
	}()
	return s
}

func (s *refSampler) ms() float64 { return math.Float64frombits(s.latest.Load()) }

// close stops the sampler and waits for it to exit.
func (s *refSampler) close() {
	close(s.stop)
	<-s.done
}

// cachedRequests are what set-up computes into the daemon's cache: every
// static experiment under the run's seed, and one simulation job (quick
// fig3 on xz with small windows) that pushes the experiments, jobs and sim
// stack through the daemon. serve-hit cycles through them.
func cachedRequests(seed uint64) []serve.Request {
	var out []serve.Request
	for _, exp := range staticExperiments {
		out = append(out, serve.Request{Experiment: exp, Quick: true, Seed: seed})
	}
	return append(out, serve.Request{Experiment: "fig3", Quick: true, Workloads: []string{"xz"},
		MeasureMS: 0.05, WarmupMS: 0.05, Seed: seed})
}

// missRequest is serve-miss's i-th request: a static experiment under a
// seed no other request of the run uses, so it is never in the cache.
func missRequest(seed uint64, i int) serve.Request {
	return serve.Request{Experiment: staticExperiments[i%len(staticExperiments)], Quick: true,
		Seed: seed*1_000_000 + uint64(i) + 1}
}

// serveEnv is one in-process daemon behind a loopback HTTP listener, and
// a client holding at most two connections to it.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	cached []cachedResult
}

// cachedResult is a request set-up computed and the manifest it got.
type cachedResult struct {
	req      serve.Request
	manifest []byte
}

func startEnv() (*serveEnv, error) {
	srv, err := serve.New(serve.Config{Backend: &serve.ExperimentsBackend{Parallelism: 1}, Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(drainTimeout) // nothing was admitted; the listen error is the one to report
		return nil, err
	}
	e := &serveEnv{
		srv:    srv,
		hs:     serve.NewHTTPServer(ln.Addr().String(), srv.Handler()),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close shuts the listener down, waits for Serve to return, and drains the
// daemon.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	e.client.CloseIdleConnections()
	if derr := e.srv.Drain(drainTimeout); err == nil {
		err = derr
	}
	return err
}

// exchange is one request: the job submission (waiting for the job) and
// the result fetch.
type exchange struct {
	status   serve.Status
	manifest []byte
	cache    string // X-Mirza-Cache of the result
	submitMS float64
	resultMS float64
	err      error
}

func (e *serveEnv) do(req serve.Request) exchange {
	var x exchange
	body, err := json.Marshal(req)
	if err != nil {
		x.err = err
		return x
	}
	t0 := time.Now()
	b, _, err := e.roundTrip(http.MethodPost, "/v1/jobs?wait=1", body)
	x.submitMS = msSince(t0)
	if err != nil {
		x.err = fmt.Errorf("submit: %w", err)
		return x
	}
	if err := json.Unmarshal(b, &x.status); err != nil {
		x.err = fmt.Errorf("submit: %w", err)
		return x
	}
	if x.status.ResultURL == "" {
		x.err = fmt.Errorf("job %s ended without a result: %s", x.status.ID, x.status.Error)
		return x
	}
	t1 := time.Now()
	x.manifest, x.cache, err = e.roundTrip(http.MethodGet, x.status.ResultURL, nil)
	x.resultMS = msSince(t1)
	if err != nil {
		x.err = fmt.Errorf("result: %w", err)
	}
	return x
}

// roundTrip performs one HTTP call that must answer 200, returning the body
// and the X-Mirza-Cache header.
func (e *serveEnv) roundTrip(method, path string, body []byte) ([]byte, string, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, resp.Header.Get("X-Mirza-Cache"), nil
}

// scrape reads the daemon's unlabelled counters from /metrics.
func (e *serveEnv) scrape() (map[string]float64, error) {
	b, _, err := e.roundTrip(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// manifestDigest hashes the behavioural part of a job manifest: the run's
// identity and the simulated machine's counters, leaving out counters that
// describe how the simulator ran (kernel events, wakes, watchdog samples).
func manifestDigest(b []byte) (string, *telemetry.RunManifest, error) {
	var m telemetry.RunManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return "", nil, err
	}
	var counters []telemetry.CounterValue
	for _, cv := range m.Metrics.Counters {
		if (strings.HasPrefix(cv.Name, "mem_") || strings.HasPrefix(cv.Name, "track_")) &&
			!strings.HasPrefix(cv.Name, "mem_wake") {
			counters = append(counters, cv)
		}
	}
	return digestOf(struct {
		Config      map[string]string
		Seed        uint64
		SimulatedPS int64
		Counters    []telemetry.CounterValue
	}{m.Config, m.Seed, m.SimulatedPS, counters}), &m, nil
}

type serveWorkload struct{ hits bool }

// setupDaemon starts a daemon and computes cachedRequests into its cache,
// checking each result: the static manifests byte for byte, the simulation
// job by its simulated statistics.
func setupDaemon(c *runCtx) (*serveEnv, error) {
	e, err := startEnv()
	if err != nil {
		return nil, err
	}
	for _, req := range cachedRequests(c.seed) {
		x := e.do(req)
		if x.err != nil {
			_ = e.close() // the request error is the one to report
			return nil, fmt.Errorf("computing %s: %w", req.Experiment, x.err)
		}
		op, digest := req.Experiment, digestBytes(x.manifest)
		if len(req.Workloads) > 0 {
			op = req.Experiment + "-" + strings.Join(req.Workloads, ",")
			if digest, _, err = manifestDigest(x.manifest); err != nil {
				_ = e.close() // the manifest error is the one to report
				return nil, fmt.Errorf("%s manifest: %w", op, err)
			}
		}
		c.verify(op, digest)
		e.cached = append(e.cached, cachedResult{req, x.manifest})
	}
	return e, nil
}

// served is one measured request.
type served struct {
	exchange
	req       serve.Request
	want      []byte  // hits: the manifest set-up cached
	problem   string  // why the request is wrong; "" when it is right
	latencyMS float64 // from when the request was due to its result
	refMS     float64 // the reference loop's latest time when it was sent
	lagMS     float64 // how late the load generator sent it
}

// load sends requests open loop at serveRate for dur, over at most two
// connections: request i is due at a seed-derived phase plus i periods,
// whether or not earlier requests have returned. first numbers the
// requests, so misses stay unique across calls.
func (w serveWorkload) load(c *runCtx, e *serveEnv, refs *refSampler, dur time.Duration, first int, traced bool) []served {
	period := time.Duration(float64(time.Second) / serveRate)
	n := max(1, int(dur.Seconds()*serveRate))
	phase := time.Duration(c.seed*0x9E3779B97F4A7C15>>11) % period
	out := make([]served, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range out {
		s := &out[i]
		if w.hits {
			hit := e.cached[(uint64(first+i)+c.seed)%uint64(len(e.cached))]
			s.req, s.want = hit.req, hit.manifest
		} else {
			s.req = missRequest(c.seed, first+i)
		}
		due := start.Add(phase + time.Duration(i)*period)
		time.Sleep(time.Until(due))
		s.lagMS = float64(time.Since(due)) / 1e6
		s.refMS = refs.ms()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var id int
			if traced {
				id = c.spans.begin(0, "request", fmt.Sprintf("%s/seed=%d", s.req.Experiment, s.req.Seed))
			}
			s.exchange = e.do(s.req)
			s.latencyMS = msSince(due)
			c.spans.end(id)
			// Check now and drop the bytes, so the run holds no response.
			s.problem = w.problem(s)
			s.manifest, s.want = nil, nil
		}()
	}
	wg.Wait()
	return out
}

// problem checks one request, returning "" when it is correct: a hit must
// be served from the cache with the bytes set-up cached; a miss must run
// and return a manifest for the experiment and seed it asked for.
func (w serveWorkload) problem(s *served) string {
	switch {
	case s.err != nil:
		return fmt.Sprintf("%s seed %d: %v", s.req.Experiment, s.req.Seed, s.err)
	case w.hits:
		if s.status.Cached && s.cache == "hit" && bytes.Equal(s.manifest, s.want) {
			return ""
		}
		return fmt.Sprintf("%s: expected a cache hit with the cached bytes (cached=%v cache=%q, %d bytes)",
			s.req.Experiment, s.status.Cached, s.cache, len(s.manifest))
	default:
		_, m, err := manifestDigest(s.manifest)
		if err == nil && !s.status.Cached && s.cache == "miss" && m.Seed == s.req.Seed &&
			m.Config["exp"] == s.req.Experiment && !m.Degraded {
			return ""
		}
		return fmt.Sprintf("%s seed %d: expected a freshly computed result (cached=%v cache=%q err=%v)",
			s.req.Experiment, s.req.Seed, s.status.Cached, s.cache, err)
	}
}

func (w serveWorkload) run(c *runCtx) error {
	setups := serveSetups
	if c.smoke {
		setups = 1
	}
	var e *serveEnv
	for i := 0; i < setups; i++ {
		id := c.spans.begin(0, "setup", fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		env, err := setupDaemon(c)
		if err != nil {
			return err
		}
		c.rep.setups = append(c.rep.setups, time.Since(t0).Seconds())
		c.spans.end(id)
		if i < setups-1 {
			if err := env.close(); err != nil {
				return err
			}
		}
		e = env
	}
	fmt.Fprintf(c.out, "set-up: %d daemons started, median %.3fs\n", setups, median(c.rep.setups))

	budget := c.seconds
	if c.traced {
		budget /= 2
	}
	refs := startRefSampler(refInterval)
	untraced := w.load(c, e, refs, budget, 0, false)
	var traced []served
	if c.traced {
		traced = w.load(c, e, refs, budget, len(untraced), true)
	}
	refs.close()
	metrics, scrapeErr := e.scrape()
	if err := e.close(); err != nil {
		return fmt.Errorf("shutting the daemon down: %w", err)
	}
	if scrapeErr != nil {
		return fmt.Errorf("scraping /metrics: %w", scrapeErr)
	}

	var lags []float64
	for _, s := range append(untraced, traced...) {
		c.rep.check(s.problem == "", "%s", s.problem)
		lags = append(lags, s.lagMS)
	}
	for _, s := range untraced {
		c.rep.ops = append(c.rep.ops, opTime{s.latencyMS, s.refMS})
	}
	lagP90 := percentile(sorted(lags), 90)
	fmt.Fprintf(c.out, "load: %d requests sent, generator lag p90 %.3fms\n", len(lags), lagP90)
	if lagP90 > 5 {
		c.rep.check(false, "load generator lag p90 %.2fms exceeds 5ms: the open loop did not hold its schedule", lagP90)
	}
	if !c.traced {
		return nil
	}

	var submit, result, wait, ran []float64
	var tOps []opTime
	for _, s := range traced {
		submit = append(submit, s.submitMS)
		result = append(result, s.resultMS)
		wait = append(wait, s.status.WaitedMS)
		ran = append(ran, s.status.RanMS)
		tOps = append(tOps, opTime{s.latencyMS, s.refMS})
	}
	m := c.rep.layer
	m["serve.submit_ms_p50"] = median(submit)
	m["serve.result_ms_p50"] = median(result)
	m["serve.queue_wait_ms_p50"] = median(wait)
	m["serve.run_ms_p50"] = median(ran)
	hits, misses := metrics["serve_cache_hits_total"], metrics["serve_cache_misses_total"]
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.shed"] = metrics["serve_shed_total"]
	m["serve.coalesced"] = metrics["serve_coalesced_total"]
	m["load.lag_p90_ms"] = lagP90
	m["load.sent"] = float64(len(untraced) + len(traced))
	m["traced_total_s"] = totalMS(tOps) / 1e3
	m["trace_overhead"] = ratio(meanRefs(tOps), meanRefs(c.rep.ops)) - 1
	fmt.Fprintf(c.out, "split (traced, p50): submit %.3fms, result %.3fms, queue wait %.3fms, run %.3fms; cache hit ratio %.3f\n",
		m["serve.submit_ms_p50"], m["serve.result_ms_p50"], m["serve.queue_wait_ms_p50"], m["serve.run_ms_p50"], m["serve.cache_hit_ratio"])
	return nil
}
