// Package httpapi is the read-side HTTP contract of the serving tier: an
// API over a *cluster.Cluster, which cmd/sionserve runs with one serve
// node by default and with -nodes N on a hash ring (adding only its
// /cluster routes to the same mux). The cluster hands out serve.Handles,
// so everything below is written against those.
//
// Endpoints (GET or HEAD; any other method is 405 with an Allow header):
//
//	/ranks                  JSON layout summary (tasks, files, sizes)
//	/rank/<r>               the rank's whole logical stream
//	/rank/<r>?off=O&n=N     N bytes from logical offset O: malformed
//	                        values are 400, an off outside [0, size] is
//	                        416, N past the end is clamped, off == size
//	                        is a valid empty window; Content-Length is
//	                        exact and the body streams in bounded chunks
//	/rank/<r>/keys          JSON list of the rank's record keys
//	/rank/<r>/key/<k>       concatenated payload of key k's records
//	/stats                  JSON serve.Stats, summed over the nodes
//	                        (HandlesOpened is the router's count); the
//	                        routing counters are on /metrics
//	/metrics                Prometheus text exposition of the cluster's
//	                        registry — the same instruments /stats reads
//	/healthz                breaker state: 200 "ok", or 503 "degraded"
//	                        with Retry-After once every node is degraded
//	                        (single nodes of a ring are routed around, not
//	                        surfaced); the body lists each node's files
//	/debug/pprof/           net/http/pprof, only with -pprof
//
// Every response echoes an X-Request-ID (adopted from the request or
// generated); requests slower than -slow-ms are logged with the request's
// breadcrumb trail (cache hits, backend reads, peer fills, retries,
// failovers) — see obs.HTTPMiddleware.
//
// Degraded contract: backend span reads retry transient faults under a
// bounded budget (-retries) and each physical file sits behind a circuit
// breaker. While a circuit is open, reads the cache can satisfy keep
// succeeding; a read that needs the degraded backend on every node it
// could go to answers 503 Service Unavailable with a Retry-After hint.
// Any other read failure is a 500.
//
// Drain contract (Run): when the context ends — sionserve ties it to
// SIGINT/SIGTERM — the listener stops accepting, in-flight requests drain
// under a deadline, then the cluster is closed.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/serve"
)

// API is the front end mounted on one cluster.
type API struct {
	// Mux is the handler table. Callers may register further routes on it
	// (sionserve adds /cluster) before Handler or Run.
	Mux *http.ServeMux
	// Log reports what can no longer become an HTTP error — response
	// writes failing after the status line is committed — plus the
	// middleware's slow-request lines. Set it before calling Handler.
	Log *slog.Logger
	// Slow is the slow-request log threshold (0 disables).
	Slow time.Duration

	c *cluster.Cluster

	mu   sync.Mutex
	keys map[int]*keyIndex // per-rank key indexes, shared by clients
}

// New mounts the API on c.
func New(c *cluster.Cluster, fl *Flags) *API {
	a := &API{
		Mux:  http.NewServeMux(),
		Log:  slog.New(slog.NewTextHandler(os.Stderr, nil)),
		Slow: time.Duration(fl.SlowMs) * time.Millisecond,
		c:    c,
		keys: make(map[int]*keyIndex),
	}
	a.Mux.HandleFunc("/ranks", ReadOnly(a.handleRanks))
	a.Mux.HandleFunc("/rank/", ReadOnly(a.handleRank))
	a.Mux.HandleFunc("/stats", ReadOnly(func(w http.ResponseWriter, _ *http.Request) { a.WriteJSON(w, c.Stats().Serve) }))
	a.Mux.HandleFunc("/metrics", ReadOnly(obs.Handler(c.Metrics()).ServeHTTP))
	a.Mux.HandleFunc("/healthz", ReadOnly(a.handleHealthz))
	if fl.Pprof {
		obs.MountPprof(a.Mux)
	}
	return a
}

// Handler is the mux behind the observability middleware: X-Request-ID
// assignment/echo, a per-request breadcrumb span, and the slow-request
// log.
func (a *API) Handler() http.Handler {
	return obs.HTTPMiddleware(a.Mux, a.Log, a.Slow)
}

// shutdownTimeout bounds the in-flight request drain.
const shutdownTimeout = 10 * time.Second

// Run serves on addr until ctx ends, then stops accepting, drains
// in-flight requests under shutdownTimeout and closes the cluster (its
// nodes' file handles). It returns the listener's error if serving
// stopped for any other reason; the cluster is closed either way. prog
// prefixes the progress and error lines.
func (a *API) Run(ctx context.Context, prog, addr string) error {
	httpSrv := &http.Server{Addr: addr, Handler: a.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.ListenAndServe() }()
	select {
	case err := <-served:
		a.c.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println(prog + ": shutting down")
	dctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, prog+": drain:", err)
	}
	<-served // http.ErrServerClosed, by Shutdown
	if err := a.c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, prog+": close:", err)
	}
	return nil
}

// ReadOnly answers anything but GET and HEAD with 405 + Allow; every
// endpoint of the API, and sionserve's GET /cluster, is wrapped in it.
func ReadOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "read-only endpoint", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// retryAfterSecs is the Retry-After hint sent with degraded 503s. The
// breaker cooldown is request-counted, so any client backoff that sheds
// immediate retries is appropriate; a small constant keeps well-behaved
// clients probing at a reasonable rate.
const retryAfterSecs = "1"

// httpError maps a read failure to its status: degraded backends are
// 503 + Retry-After (temporary by construction — the circuit re-probes
// after its cooldown), everything else stays a 500.
func httpError(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrDegraded) {
		w.Header().Set("Retry-After", retryAfterSecs)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// handleHealthz keys readiness off the status code alone: 200 while the
// cluster can serve, 503 + Retry-After while every node is degraded.
func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if a.c.Degraded() {
		status = "degraded"
		w.Header().Set("Retry-After", retryAfterSecs)
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	a.WriteJSON(w, struct {
		Status string               `json:"status"`
		Nodes  []cluster.NodeHealth `json:"nodes"`
	}{status, a.c.Health()})
}

func (a *API) handleRanks(w http.ResponseWriter, _ *http.Request) {
	l := a.c.Layout()
	type rankInfo struct {
		Rank  int   `json:"rank"`
		File  int   `json:"file"`
		Bytes int64 `json:"bytes"`
	}
	out := struct {
		Name  string     `json:"name"`
		Tasks int        `json:"tasks"`
		Files int        `json:"files"`
		FSBlk int64      `json:"fs_block_size"`
		Ranks []rankInfo `json:"ranks"`
	}{Name: l.Name(), Tasks: l.NTasks(), Files: l.NumFiles(), FSBlk: l.FSBlockSize()}
	for g, loc := range l.Mapping() {
		out.Ranks = append(out.Ranks, rankInfo{Rank: g, File: int(loc.File), Bytes: l.RankSize(g)})
	}
	a.WriteJSON(w, out)
}

// handleRank routes /rank/<r>, /rank/<r>/keys, and /rank/<r>/key/<k>.
func (a *API) handleRank(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/rank/"), "/")
	rank, err := strconv.Atoi(parts[0])
	if err != nil {
		http.Error(w, "bad rank", http.StatusBadRequest)
		return
	}
	h, err := a.c.Open(rank)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	// Thread the request's span down the read path so the layers below
	// leave breadcrumbs (cache hit / backend read / peer fill / retry /
	// failover) on it.
	h.SetSpan(obs.SpanFrom(r.Context()))
	switch {
	case len(parts) == 1:
		a.serveBytes(w, r, h)
	case len(parts) == 2 && parts[1] == "keys":
		kr, err := a.keyReader(rank, h)
		if err != nil {
			keyReaderError(w, err)
			return
		}
		a.WriteJSON(w, kr.Keys())
	case len(parts) == 3 && parts[1] == "key":
		key, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		kr, err := a.keyReader(rank, h)
		if err != nil {
			keyReaderError(w, err)
			return
		}
		data, err := kr.ReadKey(key)
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(data); err != nil {
			a.Log.Error("writing response",
				"req", obs.SpanFrom(r.Context()).ID(), "rank", rank, "key", key, "err", err)
		}
	default:
		http.NotFound(w, r)
	}
}

// serveChunk bounds the buffer serveBytes streams through: a rank's
// logical stream can be arbitrarily large, so the window is read and
// written in pieces instead of materialized in one allocation sized by
// the client's n.
const serveChunk int64 = 1 << 20

// chunkBufs recycles serveBytes' body buffers, so a request allocates no
// body-sized — and zeroed — buffer of its own. Buffers grow to the
// largest chunk the server's clients ask for, never past serveChunk.
var chunkBufs fsio.BufPool

// serveBytes answers /rank/<r> with the whole stream or the ?off=&n=
// window (see the package comment for the window contract; 416 mirrors
// HTTP range semantics).
//
// The first chunk is read before the status line is committed, so an
// immediately failing backend still maps through httpError (503 when
// degraded). Once headers are out the status can't change: mid-stream
// failures are logged and the response cut short of its Content-Length,
// which clients detect as a truncated body. A HEAD gets the validated
// window's headers and no read at all.
func (a *API) serveBytes(w http.ResponseWriter, r *http.Request, h *serve.Handle) {
	size := h.LogicalSize()
	off, n := int64(0), size
	q := r.URL.Query()
	if v := q.Get("off"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "off is not an integer", http.StatusBadRequest)
			return
		}
		if parsed < 0 || parsed > size {
			http.Error(w, fmt.Sprintf("off %d outside the logical stream (0..%d)", parsed, size),
				http.StatusRequestedRangeNotSatisfiable)
			return
		}
		off = parsed
		n = size - off
	}
	if v := q.Get("n"); v != "" {
		want, err := strconv.ParseInt(v, 10, 64)
		if err != nil || want < 0 {
			http.Error(w, "n is not a byte count", http.StatusBadRequest)
			return
		}
		if want < n {
			n = want
		}
	}
	bodyHeaders := func() {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	}
	if r.Method == http.MethodHead { // net/http would discard the body
		bodyHeaders()
		return
	}
	buf := chunkBufs.Get(min(n, serveChunk))
	defer chunkBufs.Put(buf)
	if n > 0 {
		if _, err := h.ReadLogicalAt(buf, off); err != nil {
			httpError(w, err)
			return
		}
	}
	bodyHeaders()
	for sent := int64(0); sent < n; {
		m := min(n-sent, serveChunk)
		if sent > 0 { // the first chunk was read before the headers
			if _, err := h.ReadLogicalAt(buf[:m], off+sent); err != nil {
				a.Log.Error("reading stream", "req", obs.SpanFrom(r.Context()).ID(),
					"path", r.URL.Path, "at", sent, "of", n, "err", err)
				return
			}
		}
		if _, err := w.Write(buf[:m]); err != nil {
			a.Log.Error("writing response", "req", obs.SpanFrom(r.Context()).ID(),
				"path", r.URL.Path, "at", sent, "of", n, "err", err)
			return
		}
		sent += m
	}
}

// keyReaderError distinguishes "this rank has no key records" (a client
// mistake, 400) from a degraded backend interrupting the index scan (503).
func keyReaderError(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrDegraded) {
		httpError(w, err)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// keyIndex is one rank's lazily built key index. Its own mutex admits one
// build at a time and parks only that rank's other requests behind it.
type keyIndex struct {
	mu sync.Mutex
	kr *sion.KeyReader // nil until a build has succeeded
}

// keyReader returns the rank's shared key index bound to h, so the
// records are read through this request's handle and span. The index is
// built on first use (the scan runs through the block cache, so later
// ranks and clients reuse its backend reads). The scan does backend I/O,
// so it runs under the rank's lock, never the API's: a slow or degraded
// rank holds up no other rank. A failed build is not cached; the next
// request retries it.
func (a *API) keyReader(rank int, h *serve.Handle) (*sion.KeyReader, error) {
	a.mu.Lock()
	ix := a.keys[rank]
	if ix == nil {
		ix = new(keyIndex)
		a.keys[rank] = ix
	}
	a.mu.Unlock()

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.kr == nil {
		kr, err := h.KeyReader()
		if err != nil {
			return nil, err
		}
		ix.kr = kr
	}
	return ix.kr.On(h), nil
}

// WriteJSON marshals before touching the ResponseWriter so an encoding
// failure can still become a 500; a failed write afterwards can only be
// logged (the 200 is already committed).
func (a *API) WriteJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		a.Log.Error("encoding response", "err", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(data, '\n')); err != nil {
		a.Log.Error("writing response", "err", err)
	}
}
