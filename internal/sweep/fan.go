package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mirza/internal/provenance"
	"mirza/internal/serve"
)

// FanConfig tunes the POST /v1/sweep handler.
type FanConfig struct {
	// MaxInFlight bounds how many shards of one sweep sit in the
	// daemon's admission queue at once (default 4): a fanned grid
	// shares the queue with interactive submissions instead of
	// monopolizing it, and shed shards back off instead of thundering.
	MaxInFlight int

	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *FanConfig) setDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// fanShardDoc is one NDJSON progress line of a fanned sweep.
type fanShardDoc struct {
	Index     int    `json:"index"`
	Shard     string `json:"shard"`
	Key       string `json:"key"`
	Leaf      string `json:"leaf,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Degraded  bool   `json:"degraded,omitempty"`
	Error     string `json:"error,omitempty"`
}

// fanDoneDoc is the terminal NDJSON line.
type fanDoneDoc struct {
	Done   bool   `json:"done"`
	Shards int    `json:"shards"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
	Root   string `json:"root,omitempty"`
}

// FanHandler returns the POST /v1/sweep handler: it fans a Grid into
// the daemon's admission queue (bounded, so the sweep shares the queue
// instead of flooding it) and streams NDJSON progress — one line per
// shard in enumeration order, then a terminal line whose root is the
// Merkle root over the successful shards' manifests in that order. The
// same manifests at any worker topology produce the same root, so a
// client can compare it against a locally recorded ledger head.
//
// The handler lives here rather than in package serve to keep the
// dependency direction sweep → serve; mount it with
// srv.Handle("POST /v1/sweep", sweep.FanHandler(srv, cfg)).
func FanHandler(srv *serve.Server, cfg FanConfig) http.Handler {
	cfg.setDefaults()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		g, err := ParseGrid(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		shards, err := g.Shards()
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Prepare everything before streaming starts: a bad cell is a
		// structured 400, never a half-streamed sweep.
		preps := make([]*serve.Prepared, len(shards))
		for i := range shards {
			req := shards[i].Req
			prep, err := srv.Prepare(&req)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("shard %s: %v", shards[i].ID, err))
				return
			}
			preps[i] = prep
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			httpError(w, http.StatusInternalServerError, "streaming unsupported")
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		_ = enc.Encode(map[string]int{"shards": len(shards)})
		fl.Flush()

		cfg.Logf("sweep: fanning %d shards (max %d in flight)", len(shards), cfg.MaxInFlight)
		docs := make([]chan fanShardDoc, len(shards))
		for i := range docs {
			docs[i] = make(chan fanShardDoc, 1)
		}
		sem := make(chan struct{}, cfg.MaxInFlight)
		for i := range shards {
			go func(i int) {
				select {
				case sem <- struct{}{}:
				case <-r.Context().Done():
					docs[i] <- fanShardDoc{Index: i, Shard: shards[i].ID, Key: preps[i].Key, Error: "client gone"}
					return
				}
				defer func() { <-sem }()
				docs[i] <- runFanned(r.Context(), srv, cfg, shards[i], preps[i])
			}(i)
		}

		n := len(shards)
		ok2, failed := 0, 0
		leaves := make([]provenance.Hash, 0, n)
		for i := 0; i < n; i++ {
			doc := <-docs[i]
			if doc.Error == "" {
				ok2++
				leaf, err := provenance.ParseHash(doc.Leaf)
				if err == nil {
					leaves = append(leaves, leaf)
				}
			} else {
				failed++
			}
			if err := enc.Encode(doc); err != nil {
				return // client gone; remaining goroutines release via ctx
			}
			fl.Flush()
		}
		done := fanDoneDoc{Done: true, Shards: n, OK: ok2, Failed: failed}
		if failed == 0 {
			// The root is only meaningful over the complete grid: a
			// partial sweep reports counts, not a provable head.
			done.Root = provenance.Root(leaves).String()
		}
		_ = enc.Encode(done)
		fl.Flush()
	})
}

// shedRetries is how many times a shed shard is resubmitted with backoff
// before it is reported failed.
const shedRetries = 8

// runFanned submits one shard and waits for its outcome, with backoff
// on shed.
func runFanned(ctx context.Context, srv *serve.Server, cfg FanConfig, sh Shard, prep *serve.Prepared) fanShardDoc {
	doc := fanShardDoc{Index: sh.Index, Shard: sh.ID, Key: prep.Key}
	var job *serve.Job
	backoff := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var err error
		job, err = srv.Submit(prep)
		if err == nil {
			break
		}
		if errors.Is(err, serve.ErrShed) && attempt < shedRetries && ctx.Err() == nil {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				doc.Error = "client gone"
				return doc
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		doc.Error = err.Error()
		return doc
	}
	doc.Cached, doc.Coalesced = job.Cached, job.Coalesced
	select {
	case <-job.Done():
		job.Release(false)
	case <-ctx.Done():
		job.Release(true)
		doc.Error = "client gone"
		return doc
	}
	out := job.Outcome()
	switch {
	case out == nil:
		doc.Error = "job finished without an outcome"
	case out.Err != "":
		doc.Error = out.Err
	case out.Degraded:
		// A degraded manifest exists but a sweep refuses it, exactly
		// like the process engine does.
		doc.Degraded = true
		doc.Error = "degraded fidelity; sweep records only clean full-fidelity runs"
	default:
		doc.Leaf = provenance.LeafHash(out.Manifest).String()
	}
	return doc
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
