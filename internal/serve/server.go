package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mirza/internal/experiments"
	"mirza/internal/telemetry"
	"mirza/internal/track"
)

// Config tunes a Server. The zero value of every field takes a sane
// default; only Backend is required.
type Config struct {
	// Backend prepares and runs jobs. Required.
	Backend Backend

	// Workers is how many jobs run concurrently (default 2). Each worker
	// runs one job at a time; the experiment backend parallelizes inside
	// a job with its own engine pool, so a small worker count already
	// saturates the machine.
	Workers int

	// QueueDepth bounds the admission queue (default 64). A submission
	// that would exceed it is shed with 429 + Retry-After — the queue is
	// the only place work waits, so memory stays bounded under any load.
	QueueDepth int

	// CacheEntries / CacheBytes bound the content-addressed result cache
	// (defaults 256 entries / 64 MiB).
	CacheEntries int
	CacheBytes   int64

	// Retention is how many completed job records stay pollable before
	// the oldest are forgotten (default 256).
	Retention int

	// DefaultJobTimeout bounds a job that did not ask for a deadline
	// (default 10m); MaxJobTimeout caps what a request may ask for
	// (default 30m).
	DefaultJobTimeout time.Duration
	MaxJobTimeout     time.Duration

	// DrainBudget is how long Drain lets queued + in-flight work finish
	// before canceling it (default 30s).
	DrainBudget time.Duration

	// Telemetry receives the server's metrics (a fresh registry when nil).
	Telemetry *telemetry.Registry

	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Retention <= 0 {
		c.Retention = 256
	}
	if c.DefaultJobTimeout <= 0 {
		c.DefaultJobTimeout = 10 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 30 * time.Minute
	}
	if c.DrainBudget <= 0 {
		c.DrainBudget = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// jobRec is the server-side record of one submitted job.
type jobRec struct {
	id      string
	key     string
	prep    *Prepared
	timeout time.Duration

	// ctx governs the job's execution; cancel releases it (client
	// abandonment, DELETE, drain cutoff).
	ctx    context.Context
	cancel context.CancelFunc

	// done is closed exactly once, after outcome and state are final.
	done chan struct{}

	mu        sync.Mutex
	state     JobState
	cached    bool // result served from the cache, no execution
	outcome   *Outcome
	waiters   int
	abandonOK bool // cancel the job when the last waiter disconnects
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// addWaiter registers interest from one blocking client.
func (j *jobRec) addWaiter() {
	j.mu.Lock()
	j.waiters++
	j.mu.Unlock()
}

// pin marks the job wanted independently of any connected waiter (an
// async submission coalesced onto it): client disconnects no longer
// cancel it.
func (j *jobRec) pin() {
	j.mu.Lock()
	j.abandonOK = false
	j.mu.Unlock()
}

// stateNow snapshots the state.
func (j *jobRec) stateNow() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Server is the simulation-as-a-service daemon core: admission queue,
// worker pool, result cache, job registry, and the HTTP API over them.
// Create with New, expose Handler via NewHTTPServer, stop with Drain.
type Server struct {
	cfg     Config
	backend Backend
	reg     *telemetry.Registry
	cache   *Cache
	mux     *http.ServeMux
	start   time.Time

	// baseCtx parents every job context; baseCancel is the drain cutoff.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *jobRec
	wg    sync.WaitGroup

	mu        sync.Mutex
	draining  bool
	drained   bool
	drainErr  error
	drainDone chan struct{}
	byID      map[string]*jobRec
	byKey     map[string]*jobRec // in-flight (queued or running) by content key
	doneOrder []string           // completed record ids, oldest first
	seq       int64
	queued    int // admitted, not yet picked up by a worker
	inflight  int // executing right now

	avgRunMS atomic.Int64 // EWMA of job wall-clock, feeds Retry-After

	mSubmitted, mShed, mCacheHits, mCacheMisses *telemetry.Counter
	mCoalesced, mAbandoned                      *telemetry.Counter
	gQueue, gInflight, gCacheEnt, gCacheBytes   *telemetry.Gauge
	hJobMS                                      *telemetry.Histogram
}

// New builds a Server over cfg and starts its workers. The caller owns
// the HTTP lifecycle (Handler + NewHTTPServer) and must call Drain to
// stop.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("serve: Config.Backend is required")
	}
	cfg.setDefaults()
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	s := &Server{
		cfg:     cfg,
		backend: cfg.Backend,
		reg:     reg,
		cache:   NewCache(cfg.CacheEntries, cfg.CacheBytes),
		start:   time.Now(),
		queue:   make(chan *jobRec, cfg.QueueDepth),
		byID:    make(map[string]*jobRec),
		byKey:   make(map[string]*jobRec),

		mSubmitted:   reg.Counter("serve_submitted_total"),
		mShed:        reg.Counter("serve_shed_total"),
		mCacheHits:   reg.Counter("serve_cache_hits_total"),
		mCacheMisses: reg.Counter("serve_cache_misses_total"),
		mCoalesced:   reg.Counter("serve_coalesced_total"),
		mAbandoned:   reg.Counter("serve_abandoned_total"),
		gQueue:       reg.Gauge("serve_queue_depth"),
		gInflight:    reg.Gauge("serve_inflight"),
		gCacheEnt:    reg.Gauge("serve_cache_entries"),
		gCacheBytes:  reg.Gauge("serve_cache_bytes"),
		// 250ms buckets up to 60s; longer jobs clamp into the last bucket.
		hJobMS: reg.WallHistogram("serve_job_ms", 240, 250),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = s.buildMux()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's telemetry registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// Manifest snapshots the server's own run record (tool "mirza-serve"):
// static service configuration plus all live metrics. Server manifests
// describe operations, not a deterministic computation.
func (s *Server) Manifest() *telemetry.RunManifest {
	m := telemetry.NewManifest("mirza-serve", map[string]string{
		"workers":       strconv.Itoa(s.cfg.Workers),
		"queue-depth":   strconv.Itoa(s.cfg.QueueDepth),
		"cache-entries": strconv.Itoa(s.cfg.CacheEntries),
		"cache-bytes":   strconv.FormatInt(s.cfg.CacheBytes, 10),
		"retention":     strconv.Itoa(s.cfg.Retention),
	})
	m.FillFromSnapshot(s.reg.Snapshot())
	m.WallClockSeconds = time.Since(s.start).Seconds()
	m.WrittenAt = time.Now().UTC().Format(time.RFC3339)
	return m
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/mitigations", s.handleMitigations)
	mux.HandleFunc("GET /mitigations", s.handleMitigations)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("/metrics", telemetry.PrometheusHandler(s.reg.Snapshot))
	mux.Handle("/manifest", telemetry.ManifestHandler(s.Manifest))
	return mux
}

// ---- admission ----

// ErrShed and ErrDraining are admission refusals: the queue is full
// (shed with 429 + Retry-After) or the server is draining (503). Submit
// returns them; external handlers mounted via Handle map them to the
// same HTTP codes the built-in endpoints use.
var (
	ErrShed     = errors.New("queue full")
	ErrDraining = errors.New("server is draining, not admitting work")
)

// admit either resolves prep from the cache, coalesces it onto an
// identical in-flight job, or enqueues a new job. wait marks a blocking
// submission (its disconnect may cancel the job). The returned flags
// describe which path was taken; err is ErrShed or ErrDraining.
func (s *Server) admit(prep *Prepared, wait bool) (rec *jobRec, cached, coalesced bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, false, ErrDraining
	}
	s.mSubmitted.Inc()

	if b, ok := s.cache.Get(prep.Key); ok {
		s.mCacheHits.Inc()
		rec := s.newRecLocked(prep)
		rec.cached = true
		rec.state = StateDone
		rec.outcome = &Outcome{Manifest: b}
		rec.finished = rec.submitted
		close(rec.done)
		s.retireLocked(rec)
		return rec, true, false, nil
	}

	if cur, ok := s.byKey[prep.Key]; ok {
		s.mCoalesced.Inc()
		if wait {
			cur.addWaiter()
		} else {
			cur.pin()
		}
		return cur, false, true, nil
	}

	if s.queued >= s.cfg.QueueDepth {
		s.mShed.Inc()
		return nil, false, false, ErrShed
	}
	s.mCacheMisses.Inc()

	rec = s.newRecLocked(prep)
	rec.ctx, rec.cancel = context.WithCancel(s.baseCtx)
	rec.abandonOK = wait
	if wait {
		rec.waiters = 1
	}
	s.byID[rec.id] = rec
	s.byKey[rec.key] = rec
	s.queued++
	s.gQueue.Add(1)
	// Guaranteed room: every send happens under s.mu after the
	// s.queued bound check, and s.queued >= len(s.queue) always.
	s.queue <- rec
	return rec, false, false, nil
}

// newRecLocked allocates a record with the next id. Caller holds s.mu.
func (s *Server) newRecLocked(prep *Prepared) *jobRec {
	s.seq++
	timeout := s.cfg.DefaultJobTimeout
	if ms := prep.Req.TimeoutMS; ms > 0 {
		// Capped before the multiplication, which would overflow.
		timeout = s.cfg.MaxJobTimeout
		if ms <= int64(s.cfg.MaxJobTimeout/time.Millisecond) {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if timeout > s.cfg.MaxJobTimeout {
		timeout = s.cfg.MaxJobTimeout
	}
	return &jobRec{
		id:        "j" + strconv.FormatInt(s.seq, 10),
		key:       prep.Key,
		prep:      prep,
		timeout:   timeout,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
}

// retireLocked registers a completed record for polling and evicts the
// oldest completed records beyond the retention bound. Caller holds s.mu.
func (s *Server) retireLocked(rec *jobRec) {
	s.byID[rec.id] = rec
	s.doneOrder = append(s.doneOrder, rec.id)
	for len(s.doneOrder) > s.cfg.Retention {
		delete(s.byID, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// ---- execution ----

func (s *Server) worker() {
	defer s.wg.Done()
	for rec := range s.queue {
		s.mu.Lock()
		s.queued--
		s.gQueue.Add(-1)
		s.mu.Unlock()
		if rec.ctx.Err() != nil {
			// Abandoned or cut off while still queued: never started.
			s.finish(rec, &Outcome{
				Canceled: true,
				Err:      "canceled before start: " + rec.ctx.Err().Error(),
			})
			continue
		}
		rec.mu.Lock()
		rec.state = StateRunning
		rec.started = time.Now()
		rec.mu.Unlock()
		s.mu.Lock()
		s.inflight++
		s.mu.Unlock()
		s.gInflight.Add(1)
		out := s.runIsolated(rec)
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
		s.gInflight.Add(-1)
		s.finish(rec, out)
	}
}

// runIsolated executes one job under its deadline with panic isolation:
// a panicking backend becomes a structured failed outcome, never a dead
// worker.
func (s *Server) runIsolated(rec *jobRec) (out *Outcome) {
	ctx := rec.ctx
	if rec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rec.timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			out = &Outcome{
				Err:      fmt.Sprintf("job %s panicked: %v", rec.id, p),
				Panicked: true,
				Stack:    string(debug.Stack()),
			}
		}
	}()
	out = s.backend.Run(ctx, rec.prep)
	if out == nil {
		out = &Outcome{Err: "backend returned no outcome"}
	}
	if out.Err != "" && ctx.Err() != nil {
		out.Canceled = true
	}
	return out
}

// finish publishes a job's terminal outcome: cache insertion (clean
// full-fidelity results only), single-flight release, retention, and
// accounting. It closes rec.done last, so anyone woken by it observes
// the final state.
func (s *Server) finish(rec *jobRec, out *Outcome) {
	now := time.Now()
	s.mu.Lock()
	if out.cacheable() {
		s.cache.Put(rec.key, out.Manifest)
		s.gCacheEnt.Set(int64(s.cache.Len()))
		s.gCacheBytes.Set(s.cache.Bytes())
	}
	if s.byKey[rec.key] == rec {
		delete(s.byKey, rec.key)
	}
	s.retireLocked(rec)
	s.mu.Unlock()

	rec.mu.Lock()
	rec.outcome = out
	rec.state = StateDone
	rec.finished = now
	started := rec.started
	rec.mu.Unlock()

	status := "ok"
	switch {
	case out.Panicked:
		status = "panicked"
	case out.Canceled:
		status = "canceled"
	case out.Err != "":
		status = "failed"
	case out.Degraded:
		status = "degraded"
	}
	s.reg.Counter("serve_jobs_total", telemetry.L("status", status)).Inc()
	if !started.IsZero() {
		ms := float64(now.Sub(started)) / float64(time.Millisecond)
		s.hJobMS.Observe(ms)
		// EWMA (1/8 weight) feeds the Retry-After estimate.
		old := s.avgRunMS.Load()
		if old == 0 {
			s.avgRunMS.Store(int64(ms) + 1)
		} else {
			s.avgRunMS.Store((7*old + int64(ms) + 1) / 8)
		}
	}
	close(rec.done)
	if rec.cancel != nil {
		rec.cancel()
	}
	s.logf("job %s %s (%s)", rec.id, status, rec.key[:min(12, len(rec.key))])
}

// dropWaiter detaches one blocking client. abandoned marks a client
// disconnect: when the last such waiter of an abandonable job leaves,
// the job is canceled and released from single-flight so a later
// identical submission starts fresh.
func (s *Server) dropWaiter(rec *jobRec, abandoned bool) {
	rec.mu.Lock()
	rec.waiters--
	cancel := abandoned && rec.waiters <= 0 && rec.abandonOK && rec.state != StateDone
	rec.mu.Unlock()
	if !cancel {
		return
	}
	s.mAbandoned.Inc()
	s.releaseKey(rec)
	rec.cancel()
}

// releaseKey removes rec from the single-flight index so new identical
// submissions are not coalesced onto a canceled job.
func (s *Server) releaseKey(rec *jobRec) {
	s.mu.Lock()
	if s.byKey[rec.key] == rec {
		delete(s.byKey, rec.key)
	}
	s.mu.Unlock()
}

// Retry-After bounds. The floor matters: with sub-second jobs the EWMA
// (avgRunMS) divided down to seconds rounds to 0, and a 0-second
// Retry-After tells shed clients to retry immediately — they hammer the
// full queue and get re-shed in a tight loop. RFC 9110 allows 0 but the
// only sane backoff is >= 1s, so the estimate is clamped to the floor on
// every path that emits the header (handleSubmit 429, handleReadyz 503).
const (
	retryAfterFloorSeconds = 1
	retryAfterCeilSeconds  = 300
)

// retryAfterSeconds estimates when shed load should come back: the
// current backlog over the worker count, scaled by the average job
// duration. Clamped to [retryAfterFloorSeconds, retryAfterCeilSeconds].
func (s *Server) retryAfterSeconds() int {
	avg := s.avgRunMS.Load()
	if avg <= 0 {
		avg = 1000
	}
	s.mu.Lock()
	depth := s.queued + s.inflight
	s.mu.Unlock()
	secs := int(math.Ceil(float64(avg) / 1000 * (float64(depth)/float64(s.cfg.Workers) + 1)))
	return max(retryAfterFloorSeconds, min(secs, retryAfterCeilSeconds))
}

// ---- drain ----

// Drain stops admitting work, lets queued and in-flight jobs finish
// within budget (<= 0 uses Config.DrainBudget), then cancels whatever is
// left and waits a short grace for workers to unwind. It is idempotent:
// concurrent callers share one drain and its result. After Drain the
// server answers reads (status, results, metrics) but admits nothing.
func (s *Server) Drain(budget time.Duration) error {
	if budget <= 0 {
		budget = s.cfg.DrainBudget
	}
	s.mu.Lock()
	if s.draining {
		ch := s.drainDone
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.drainErr
	}
	s.draining = true
	s.drainDone = make(chan struct{})
	queued, inflight := s.queued, s.inflight
	// Safe: every send happens under s.mu after a draining check.
	close(s.queue)
	s.mu.Unlock()
	s.logf("draining: %d queued, %d in flight, budget %v", queued, inflight, budget)

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var err error
	select {
	case <-workersDone:
	case <-time.After(budget):
		s.logf("drain budget exceeded: canceling remaining jobs")
		s.baseCancel()
		select {
		case <-workersDone:
		case <-time.After(10 * time.Second):
			s.mu.Lock()
			n := s.inflight
			s.mu.Unlock()
			err = fmt.Errorf("serve: drain incomplete: %d jobs ignored cancellation", n)
		}
	}
	s.baseCancel()

	snap := s.reg.Snapshot()
	s.logf("drained: %d jobs run, %d shed, %d cache hits / %d misses",
		snap.CounterTotal("serve_jobs_total"), snap.CounterTotal("serve_shed_total"),
		snap.CounterTotal("serve_cache_hits_total"), snap.CounterTotal("serve_cache_misses_total"))

	s.mu.Lock()
	s.drained = err == nil
	s.drainErr = err
	close(s.drainDone)
	s.mu.Unlock()
	return err
}

// State reports the daemon lifecycle.
func (s *Server) State() ServerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.drained:
		return StateDrained
	case s.draining:
		return StateDraining
	default:
		return StateServing
	}
}

// ---- HTTP handlers ----

const maxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, errorDoc{Error: "bad request body: " + err.Error()})
		return
	}
	prep, err := s.backend.Prepare(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	wait := boolParam(r, "wait")

	rec, cached, coalesced, err := s.admit(prep, wait)
	switch {
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, errorDoc{Error: ErrDraining.Error()})
		return
	case errors.Is(err, ErrShed):
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeErr(w, http.StatusTooManyRequests, errorDoc{
			Error:      "queue full: retry later",
			RetryAfter: retry,
		})
		return
	}

	decorate := func(st *Status) {
		st.Cached = st.Cached || cached
		st.Coalesced = coalesced
	}
	if rec.stateNow() == StateDone {
		st := s.status(rec)
		decorate(&st)
		writeJSON(w, http.StatusOK, st)
		return
	}
	if !wait {
		st := s.status(rec)
		decorate(&st)
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	s.waitJob(w, r, rec, decorate)
}

// waitBudget bounds one ?wait=1 long-poll. A wait that exceeds it returns
// 202 with the job still running; the client polls again. It stays below
// httpWriteTimeout.
const waitBudget = 5 * time.Minute

// waitJob blocks until rec finishes, the client disconnects, or waitBudget
// expires. The caller must already hold a waiter registration on
// rec; waitJob releases it on every path.
func (s *Server) waitJob(w http.ResponseWriter, r *http.Request, rec *jobRec, decorate func(*Status)) {
	timer := time.NewTimer(waitBudget)
	defer timer.Stop()
	select {
	case <-rec.done:
		s.dropWaiter(rec, false)
		st := s.status(rec)
		decorate(&st)
		writeJSON(w, http.StatusOK, st)
	case <-r.Context().Done():
		// Client gone: nothing to write. If it was the job's last
		// interested waiter, the job itself is canceled.
		s.dropWaiter(rec, true)
	case <-timer.C:
		s.dropWaiter(rec, false)
		st := s.status(rec)
		decorate(&st)
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *jobRec {
	id := r.PathValue("id")
	s.mu.Lock()
	rec := s.byID[id]
	s.mu.Unlock()
	if rec == nil {
		writeErr(w, http.StatusNotFound, errorDoc{Error: fmt.Sprintf("unknown (or expired) job id %q", id)})
	}
	return rec
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(w, r)
	if rec == nil {
		return
	}
	if boolParam(r, "wait") && rec.stateNow() != StateDone {
		rec.addWaiter()
		s.waitJob(w, r, rec, func(*Status) {})
		return
	}
	writeJSON(w, http.StatusOK, s.status(rec))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(w, r)
	if rec == nil {
		return
	}
	if rec.stateNow() != StateDone && rec.cancel != nil {
		s.releaseKey(rec)
		rec.cancel()
	}
	writeJSON(w, http.StatusAccepted, s.status(rec))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(w, r)
	if rec == nil {
		return
	}
	rec.mu.Lock()
	state, out, cached := rec.state, rec.outcome, rec.cached
	rec.mu.Unlock()
	if state != StateDone || out == nil {
		writeErr(w, http.StatusConflict, errorDoc{Error: fmt.Sprintf("job %s not finished (state %s)", rec.id, state)})
		return
	}
	if !out.ok() {
		writeErr(w, http.StatusInternalServerError, errorDoc{
			Error:    out.Err,
			Panicked: out.Panicked,
			Canceled: out.Canceled,
			Degraded: out.Degraded,
			Stack:    out.Stack,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if cached {
		w.Header().Set("X-Mirza-Cache", "hit")
	} else {
		w.Header().Set("X-Mirza-Cache", "miss")
	}
	if out.Degraded {
		w.Header().Set("X-Mirza-Degraded", "true")
	}
	_, _ = w.Write(out.Manifest)
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(w, r)
	if rec == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errorDoc{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		st := s.status(rec)
		if err := enc.Encode(st); err != nil {
			return
		}
		fl.Flush()
		if st.State == StateDone {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-rec.done:
			// Loop once more to emit the terminal status.
		case <-ticker.C:
		}
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := make([]*jobRec, 0, len(s.byID))
	for _, rec := range s.byID {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	statuses := make([]Status, 0, len(recs))
	for _, rec := range recs {
		statuses = append(statuses, s.status(rec))
	}
	// ids are j<seq>: numeric order is submission order.
	sort.Slice(statuses, func(i, j int) bool {
		a, _ := strconv.Atoi(statuses[i].ID[1:])
		b, _ := strconv.Atoi(statuses[j].ID[1:])
		return a < b
	})
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := Health{
		QueueDepth: s.queued,
		QueueCap:   s.cfg.QueueDepth,
		InFlight:   s.inflight,
	}
	s.mu.Unlock()
	h.State = s.State()
	h.CacheLen = s.cache.Len()
	h.UptimeSec = time.Since(s.start).Seconds()
	writeJSON(w, http.StatusOK, h)
}

// mitigationDoc describes one registered mitigation policy in the
// GET /v1/mitigations listing.
type mitigationDoc struct {
	Name     string            `json:"name"`
	Doc      string            `json:"doc"`
	Insecure bool              `json:"insecure,omitempty"`
	Params   []track.ParamSpec `json:"params,omitempty"`
}

// handleMitigations lists every mitigation policy the daemon can build,
// with docs and tunable parameters — the names Request.Mitigations
// accepts. The set is fixed at process start (registration happens in
// package init), so the response is stable for the daemon's lifetime.
func (s *Server) handleMitigations(w http.ResponseWriter, r *http.Request) {
	ds := track.Descriptors()
	docs := make([]mitigationDoc, 0, len(ds))
	for _, d := range ds {
		docs = append(docs, mitigationDoc{
			Name:     d.Name,
			Doc:      d.Doc,
			Insecure: d.Insecure,
			Params:   d.ConfigSchema,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"mitigations": docs})
}

// experimentDoc describes one experiment in the GET /v1/experiments
// listing.
type experimentDoc struct {
	ID          string `json:"id"`
	Description string `json:"description"`
}

// handleExperiments lists every experiment the daemon can run — the ids
// Request.Experiment accepts, in the paper's order (the same listing as
// mirza-bench -list). The registry is compiled in, so the response is
// stable for the daemon's lifetime.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	all := experiments.All()
	docs := make([]experimentDoc, 0, len(all))
	for _, e := range all {
		docs = append(docs, experimentDoc{ID: e.ID, Description: e.Description})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": docs})
}

// handleReadyz degrades honestly: not ready while draining or while the
// admission queue is full, so load balancers stop routing before clients
// start seeing 429/503.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, full := s.draining, s.queued >= s.cfg.QueueDepth
	s.mu.Unlock()
	switch {
	case draining:
		writeErr(w, http.StatusServiceUnavailable, errorDoc{Error: "draining"})
	case full:
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeErr(w, http.StatusServiceUnavailable, errorDoc{Error: "overloaded: admission queue full", RetryAfter: retry})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	}
}

// status snapshots rec as a client-facing document.
func (s *Server) status(rec *jobRec) Status {
	s.mu.Lock()
	qd := s.queued
	s.mu.Unlock()
	now := time.Now()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	st := Status{
		ID:         rec.id,
		State:      rec.state,
		Experiment: rec.prep.Req.Experiment,
		Key:        rec.key,
		Cached:     rec.cached,
		QueueDepth: qd,
	}
	switch {
	case rec.state == StateQueued:
		st.WaitedMS = float64(now.Sub(rec.submitted)) / float64(time.Millisecond)
	case !rec.started.IsZero():
		st.WaitedMS = float64(rec.started.Sub(rec.submitted)) / float64(time.Millisecond)
		end := rec.finished
		if end.IsZero() {
			end = now
		}
		st.RanMS = float64(end.Sub(rec.started)) / float64(time.Millisecond)
	}
	if rec.state == StateDone && rec.outcome != nil {
		out := rec.outcome
		st.Degraded = out.Degraded
		st.Canceled = out.Canceled
		st.Panicked = out.Panicked
		st.Error = out.Err
		if out.ok() {
			st.ResultURL = "/v1/jobs/" + rec.id + "/result"
		}
	}
	return st
}

// ---- extension API ----
//
// These exported hooks let sibling packages compose endpoints over the
// admission queue without reaching into it — internal/sweep mounts
// POST /v1/sweep this way (the handler lives there, not here, to keep
// the dependency direction sweep → serve).

// Handle mounts an additional handler on the daemon's mux. Call it
// during setup, before the HTTP server starts serving; a pattern that
// collides with a built-in route panics, like http.ServeMux does.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// Prepare validates req through the backend and resolves its
// content-addressed identity without admitting anything.
func (s *Server) Prepare(req *Request) (*Prepared, error) {
	return s.backend.Prepare(req)
}

// Job is a handle on one submitted job for in-process callers: the same
// waiter semantics a blocking HTTP client gets, without the transport.
type Job struct {
	s        *Server
	rec      *jobRec
	released atomic.Bool

	// Cached and Coalesced report how admission resolved the submission.
	Cached    bool
	Coalesced bool
}

// Submit admits prep as a blocking submission: cache hit, coalescing
// onto an identical in-flight job, or a fresh enqueue. The error is
// ErrShed or ErrDraining. The caller holds a waiter registration and
// must call Release exactly once, on every path.
func (s *Server) Submit(prep *Prepared) (*Job, error) {
	rec, cached, coalesced, err := s.admit(prep, true)
	if err != nil {
		return nil, err
	}
	return &Job{s: s, rec: rec, Cached: cached, Coalesced: coalesced}, nil
}

// Done is closed when the job reaches its terminal state.
func (j *Job) Done() <-chan struct{} { return j.rec.done }

// Outcome returns the terminal outcome (nil until Done is closed).
func (j *Job) Outcome() *Outcome {
	j.rec.mu.Lock()
	defer j.rec.mu.Unlock()
	if j.rec.state != StateDone {
		return nil
	}
	return j.rec.outcome
}

// Status snapshots the job as the polling endpoints would render it.
func (j *Job) Status() Status { return j.s.status(j.rec) }

// Release drops this caller's waiter registration. abandoned marks the
// caller as gone without its result (client disconnect): if it was the
// job's last interested waiter, the job is canceled, exactly as for an
// HTTP long-poller. Safe to call once; extra calls are no-ops.
func (j *Job) Release(abandoned bool) {
	// A cache hit never registered a waiter: nothing to drop.
	if j.released.Swap(true) || j.Cached {
		return
	}
	j.s.dropWaiter(j.rec, abandoned)
}

// ---- small helpers ----

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v != "" && v != "0" && v != "false"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, doc errorDoc) {
	writeJSON(w, code, doc)
}
