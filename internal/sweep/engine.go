package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"mirza/internal/jobs"
	"mirza/internal/provenance"
	"mirza/internal/serve"
	"mirza/internal/telemetry"
)

// Options tunes an Engine.
type Options struct {
	// Bench is the mirza-bench binary executed in shard mode
	// (-shard/-shard-out). Required.
	Bench string

	// Workers is the process-level parallelism (default 1). The merged
	// output is byte-identical at any value.
	Workers int

	// InnerJ is the -j engine parallelism passed to every worker process
	// (0 = the worker's default). Total load ≈ Workers × InnerJ.
	InnerJ int

	// Retries is how many times a shard whose worker process died of a
	// signal (OOM kill, crash) is re-executed (default 2). Deterministic
	// failures — a nonzero exit — are never retried: the rerun would
	// fail identically.
	Retries int

	// ShardTimeout bounds one shard attempt's wall clock (default 10m).
	ShardTimeout time.Duration

	// StallBudget and Verbose are forwarded to workers
	// (-stall-budget / -v).
	StallBudget time.Duration
	Verbose     bool

	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() error {
	if o.Bench == "" {
		return fmt.Errorf("sweep: Options.Bench (mirza-bench path) is required")
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 10 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// ShardResult is the outcome of one shard, reported at the shard's
// enumeration index.
type ShardResult struct {
	Shard Shard

	// Key is the shard's content-addressed identity
	// (telemetry.ConfigHash(config)+"-"+seed), computed by the same
	// Prepare the daemon uses.
	Key string

	// Manifest is the canonical run manifest bytes (nil on failure) —
	// byte-identical whether produced by a worker process, the daemon,
	// or a previous run.
	Manifest []byte

	// Cached marks a shard satisfied from the ledger without execution.
	Cached bool

	// Deaths counts worker processes that died of a signal before the
	// recorded attempt succeeded.
	Deaths int

	// Err is the shard's terminal failure (nil on success).
	Err error
}

// Engine executes grids across worker processes.
type Engine struct {
	opts Options

	// prep computes shard identities: the daemon's Prepare, so a sweep
	// key equals the serve cache key for the same request. Wall-clock
	// knobs (stall budget, parallelism) are excluded from the hash, so
	// passing them here does not perturb identity.
	prep serve.Backend
}

// NewEngine builds an engine over opts.
func NewEngine(opts Options) (*Engine, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	return &Engine{
		opts: opts,
		prep: &serve.ExperimentsBackend{StallBudget: opts.StallBudget, Parallelism: opts.InnerJ},
	}, nil
}

// Run enumerates g, reuses (see reuse) or executes every shard against
// the ledger l, and returns one result per shard in enumeration order,
// whatever order the worker processes finished in — the jobs-pool
// contract, lifted to processes. Each fresh manifest is stored in l as
// soon as it validates, so a coordinator killed mid-sweep loses no
// finished shard; Record then appends the results.
// Shard failures are reported in the results, not as the returned
// error, so one failed cell never discards a completed grid; the error
// covers grid-level problems (invalid spec, unpreparable shard,
// scratch-dir setup).
func (e *Engine) Run(ctx context.Context, g *Grid, l *provenance.Ledger) ([]ShardResult, error) {
	shards, err := g.Shards()
	if err != nil {
		return nil, err
	}
	// Prepare every shard up front: identities are needed for ledger
	// lookups anyway, and a typo in any cell fails the sweep before the
	// first process starts, like the daemon's 400-before-queue contract.
	keys := make([]string, len(shards))
	for i, sh := range shards {
		req := sh.Req
		prep, err := e.prep.Prepare(&req)
		if err != nil {
			return nil, fmt.Errorf("sweep: shard %s: %w", sh.ID, err)
		}
		keys[i] = prep.Key
	}
	// Shards the ledger already holds are settled here, in one
	// goroutine; only the rest reach a worker.
	out := make([]ShardResult, len(shards))
	var pending []int
	for i, sh := range shards {
		var ok bool
		if out[i], ok = e.reuse(l, sh, keys[i]); !ok {
			pending = append(pending, i)
		}
	}
	scratch, err := os.MkdirTemp("", "mirza-sweep-")
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	defer os.RemoveAll(scratch)

	js := make([]jobs.Job[ShardResult], len(pending))
	for j, i := range pending {
		sh, key := shards[i], keys[i]
		js[j] = jobs.Job[ShardResult]{
			ID: sh.ID,
			// Failures travel inside the ShardResult: the pool's
			// fail-fast (built for must-all-succeed simulation batches)
			// would skip every later shard on the first bad cell.
			Run: func(ctx context.Context) (ShardResult, error) {
				return e.runShard(ctx, l, scratch, sh, key), nil
			},
		}
	}
	results := jobs.RunCtx(ctx, jobs.Options{Parallelism: e.opts.Workers}, js)
	for j, r := range results {
		i := pending[j]
		out[i] = r.Value
		if r.Err != nil { // pool-level: cancellation
			out[i] = ShardResult{Shard: shards[i], Key: keys[i], Err: r.Err}
		}
	}
	return out, nil
}

// reuse settles a shard from the manifest stored under its key, which
// must pass validateManifest and, once recorded, hash to its entry's
// leaf. A recorded shard is never re-run: a damaged file fails it and
// stays on disk as the evidence VerifyLedger reports. ok=false sends
// the shard to a worker, whose output replaces an invalid unrecorded
// file (a truncated write or hand edit).
func (e *Engine) reuse(l *provenance.Ledger, sh Shard, key string) (res ShardResult, ok bool) {
	res = ShardResult{Shard: sh, Key: key}
	b, err := l.Stored(key)
	entry, recorded := l.Lookup(key)
	if err == nil && recorded && provenance.LeafHash(b).String() != entry.Leaf {
		err = fmt.Errorf("bytes do not hash to the entry's leaf %s", entry.Leaf)
	}
	if err == nil {
		err = validateManifest(b, key)
	}
	switch {
	case err == nil:
		e.opts.Logf("shard %s: cached (%s)", sh.ID, key[:12])
		res.Manifest, res.Cached = b, true
	case recorded:
		res.Err = fmt.Errorf("sweep: shard %s: recorded manifest is damaged, not re-running over it (run mirza-sweep verify): %w", sh.ID, err)
	default:
		if !errors.Is(err, os.ErrNotExist) {
			e.opts.Logf("shard %s: stored manifest invalid (%v), re-running", sh.ID, err)
		}
		return res, false
	}
	return res, true
}

// runShard executes one shard in a worker process with death-retry and
// stores the validated manifest. It runs on concurrent jobs, so it
// calls only the ledger's Store.
func (e *Engine) runShard(ctx context.Context, l *provenance.Ledger, scratch string, sh Shard, key string) ShardResult {
	res := ShardResult{Shard: sh, Key: key}
	reqPath := filepath.Join(scratch, fmt.Sprintf("shard-%d.json", sh.Index))
	outPath := filepath.Join(scratch, fmt.Sprintf("shard-%d.out.json", sh.Index))
	reqBytes, err := json.Marshal(sh.Req)
	if err != nil {
		res.Err = err
		return res
	}
	if err := os.WriteFile(reqPath, reqBytes, 0o644); err != nil {
		res.Err = err
		return res
	}
	for attempt := 0; ; attempt++ {
		manifest, err := e.execShard(ctx, reqPath, outPath)
		if err == nil {
			if verr := validateManifest(manifest, key); verr != nil {
				res.Err = fmt.Errorf("sweep: shard %s: %w", sh.ID, verr)
				return res
			}
			res.Deaths = attempt
			if err := l.Store(key, manifest); err != nil {
				res.Err = fmt.Errorf("sweep: shard %s: %w", sh.ID, err)
				return res
			}
			res.Manifest = manifest
			e.opts.Logf("shard %s: done (%s)", sh.ID, key[:12])
			return res
		}
		var death *workerDeathError
		if errors.As(err, &death) && attempt < e.opts.Retries && ctx.Err() == nil {
			// Signal death is environmental (OOM killer, crash, an
			// operator's kill): the deterministic shard is safe to rerun
			// and must produce the identical manifest.
			e.opts.Logf("shard %s: worker died (%v), retry %d/%d", sh.ID, death.signal, attempt+1, e.opts.Retries)
			continue
		}
		res.Err = fmt.Errorf("sweep: shard %s: %w", sh.ID, err)
		res.Deaths = attempt
		return res
	}
}

// workerDeathError marks a worker process killed by a signal rather
// than exiting — the one failure class a rerun can fix.
type workerDeathError struct {
	signal syscall.Signal
}

func (e *workerDeathError) Error() string {
	return fmt.Sprintf("worker process died: signal %v", e.signal)
}

// execShard runs one worker process attempt and returns the manifest
// bytes it wrote.
func (e *Engine) execShard(ctx context.Context, reqPath, outPath string) ([]byte, error) {
	// A fresh output path state per attempt: a dead worker's partial
	// write must not be mistaken for a result.
	_ = os.Remove(outPath)
	actx, cancel := context.WithTimeout(ctx, e.opts.ShardTimeout)
	defer cancel()
	args := []string{"-shard", reqPath, "-shard-out", outPath}
	if e.opts.InnerJ > 0 {
		args = append(args, "-j", strconv.Itoa(e.opts.InnerJ))
	}
	if e.opts.StallBudget > 0 {
		args = append(args, "-stall-budget", e.opts.StallBudget.String())
	}
	if e.opts.Verbose {
		args = append(args, "-v")
	}
	cmd := exec.CommandContext(actx, e.opts.Bench, args...)
	var stderr bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return os.ReadFile(outPath)
	}
	if actx.Err() != nil {
		// The engine's own deadline or cancellation killed the worker:
		// not a worker death, retrying would just burn another timeout.
		return nil, fmt.Errorf("%w (after %v)", actx.Err(), e.opts.ShardTimeout)
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return nil, &workerDeathError{signal: ws.Signal()}
		}
		return nil, fmt.Errorf("worker exited %d: %s", ee.ExitCode(), stderrTail(&stderr))
	}
	return nil, fmt.Errorf("starting worker: %w", err)
}

// stderrTail compresses a worker's stderr into an error-sized excerpt.
func stderrTail(buf *bytes.Buffer) string {
	s := bytes.TrimSpace(buf.Bytes())
	if len(s) == 0 {
		return "(no stderr)"
	}
	const max = 512
	if len(s) > max {
		s = s[len(s)-max:]
	}
	return string(s)
}

// validateManifest is the one admission check for manifest bytes, run
// on fresh worker output, on manifests reused from the ledger and by
// VerifyLedger: they parse, their config hash and seed reproduce key,
// they are not degraded, and they re-render canonically to the same
// bytes (a truncated or hand-edited file fails here).
func validateManifest(manifest []byte, key string) error {
	var m telemetry.RunManifest
	if err := json.Unmarshal(manifest, &m); err != nil {
		return fmt.Errorf("manifest does not parse: %w", err)
	}
	if got := fmt.Sprintf("%s-%d", m.ConfigHash, m.Seed); got != key {
		return fmt.Errorf("manifest answers for key %s, want %s", got, key)
	}
	if telemetry.ConfigHash(m.Config) != m.ConfigHash {
		return fmt.Errorf("manifest config does not hash to its config_hash %s", m.ConfigHash)
	}
	if m.Degraded {
		return fmt.Errorf("manifest is degraded fidelity; a sweep records only clean full-fidelity runs")
	}
	canon, err := m.Canonical().JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(canon, manifest) {
		return fmt.Errorf("manifest bytes are not canonical (wall-clock fields present or formatting drift)")
	}
	return nil
}
