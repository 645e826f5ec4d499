// Command mirza-serve is the simulation-as-a-service daemon: a hardened
// HTTP/JSON front door over the experiment pipeline. Clients POST
// experiment jobs, poll or long-poll their progress, and fetch the
// resulting canonical run manifest; identical requests are coalesced
// in flight and repeated ones served byte-for-byte from a bounded
// content-addressed cache.
//
// Usage:
//
//	mirza-serve -listen 127.0.0.1:8080
//	mirza-serve -listen :8080 -workers 4 -queue 128 -drain-budget 1m
//
// Quick round trip:
//
//	curl -s -XPOST -d '{"experiment":"fig3","quick":true}' \
//	    'http://127.0.0.1:8080/v1/jobs?wait=1'
//	curl -s http://127.0.0.1:8080/v1/jobs/j1/result
//
// GET /v1/experiments and GET /v1/mitigations enumerate the experiment
// ids and mitigation policies jobs may name. Jobs can also replay
// recorded traces by (server-side) reference and run multi-tenant
// scenarios; both are validated at admission:
//
//	curl -s -XPOST -d '{"experiment":"tracereplay","trace":["examples/traces/stream.trace"],"quick":true}' \
//	    'http://127.0.0.1:8080/v1/jobs?wait=1'
//	curl -s -XPOST -d '{"experiment":"intervm","tenants":"xz:6+attack=edge:2","quick":true}' \
//	    'http://127.0.0.1:8080/v1/jobs?wait=1'
//
// The daemon sheds load with 429 + Retry-After once its admission queue
// is full, reports readiness honestly on /readyz, and drains gracefully
// on SIGTERM/SIGINT: admission stops, queued and in-flight jobs finish
// (or are canceled once -drain-budget expires), metrics are flushed, and
// the process exits 0 on a clean drain. See DESIGN.md §13 for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mirza/internal/cliflags"
	"mirza/internal/serve"
	"mirza/internal/sweep"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8080", "address to serve the HTTP API on (host:port)")
		workers  = flag.Int("workers", 2, "concurrent experiment jobs")
		queue    = flag.Int("queue", 64, "admission queue bound; beyond it submissions are shed with 429")
		cacheEnt = flag.Int("cache-entries", 256, "result cache bound (entries)")
		cacheMB  = flag.Int("cache-mb", 64, "result cache bound (MiB)")
		jobTO    = flag.Duration("job-timeout", 10*time.Minute, "default wall-clock deadline per job")
		maxJobTO = flag.Duration("max-job-timeout", 30*time.Minute, "cap on the per-request timeout_ms")
		drain    = flag.Duration("drain-budget", 30*time.Second, "how long a SIGTERM drain lets work finish before canceling it")
		stall    = flag.Duration("stall-budget", cliflags.DefaultStallBudget, "livelock watchdog budget per simulation (0 = disabled)")
		j        = flag.Int("j", 0, "experiment engine workers per job (0 = GOMAXPROCS)")
		metrics  = flag.String("metrics", "", "write the server's telemetry RunManifest JSON to this path after drain")
		sweepOn  = flag.Bool("sweep", true, "serve POST /v1/sweep: fan a grid spec into the admission queue with NDJSON progress")
		sweepMax = flag.Int("sweep-inflight", 4, "max shards of one fanned sweep in the admission queue at once")
		verbose  = flag.Bool("v", false, "log per-job progress to stderr")
	)
	flag.Parse()
	os.Exit(run(*listen, *workers, *queue, *cacheEnt, *cacheMB, *jobTO, *maxJobTO, *drain, *stall, *j, *metrics, *sweepOn, *sweepMax, *verbose))
}

// run is main minus os.Exit, so deferred cleanup actually runs.
func run(listen string, workers, queue, cacheEnt, cacheMB int, jobTO, maxJobTO, drain, stall time.Duration, j int, metrics string, sweepOn bool, sweepMax int, verbose bool) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mirza-serve: "+format+"\n", args...)
	}
	warn, err := cliflags.ValidateListen(listen)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if warn != "" {
		logf("%s", warn)
	}
	if j < 0 {
		logf("-j: worker count must be >= 0, got %d", j)
		return 2
	}

	backend := &serve.ExperimentsBackend{
		StallBudget: stall,
		Parallelism: j,
	}
	if verbose {
		backend.Logf = logf
	}
	srv, err := serve.New(serve.Config{
		Backend:           backend,
		Workers:           workers,
		QueueDepth:        queue,
		CacheEntries:      cacheEnt,
		CacheBytes:        int64(cacheMB) << 20,
		DefaultJobTimeout: jobTO,
		MaxJobTimeout:     maxJobTO,
		DrainBudget:       drain,
		Logf:              logf,
	})
	if err != nil {
		logf("%v", err)
		return 2
	}
	if sweepOn {
		// The fan handler lives in internal/sweep (dependency direction
		// sweep → serve) and rides the same admission queue, bounded so a
		// fanned grid shares it with interactive submissions.
		fanCfg := sweep.FanConfig{MaxInFlight: sweepMax}
		if verbose {
			fanCfg.Logf = logf
		}
		srv.Handle("POST /v1/sweep", sweep.FanHandler(srv, fanCfg))
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		logf("listen: %v", err)
		return 1
	}
	// The resolved address matters with port 0; scripts parse this line.
	logf("listening on %s", ln.Addr())

	hsrv := serve.NewHTTPServer("", srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hsrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	select {
	case err := <-serveErr:
		logf("serve: %v", err)
		code = 1
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		logf("signal received; draining (budget %v)", drain)
		if err := srv.Drain(0); err != nil {
			logf("%v", err)
			code = 1
		}
	}

	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hsrv.Shutdown(shctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("shutdown: %v", err)
	}
	if metrics != "" {
		if err := srv.Manifest().WriteFile(metrics); err != nil {
			logf("writing manifest: %v", err)
			code = 1
		}
	}
	return code
}
