package obs

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// RequestIDHeader carries the request ID between client and server. An
// incoming ID of 1–64 requestIDChars is adopted (so a caller's ID follows
// the request through the slow-request log); any other value, or none,
// gets a fresh one. Either way the response echoes it.
const RequestIDHeader = "X-Request-ID"

const requestIDChars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._:-"

// HTTPMiddleware wraps next with the request-scoped observability of the
// HTTP front end (internal/httpapi, served by sionserve):
//
//   - assigns or adopts an X-Request-ID and echoes it on the response,
//   - attaches a Span to the request context so handlers can thread it
//     down the read path (Handle.SetSpan) and the layers below record
//     breadcrumbs — cache hits, backend reads, peer fills, retries,
//   - logs requests slower than slow to log with the span's breadcrumb
//     trail, answering "why was this one slow?" from the log alone.
//
// A zero slow (or nil log) disables the slow-request log; the ID and span
// plumbing still run.
func HTTPMiddleware(next http.Handler, log *slog.Logger, slow time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > 64 || strings.TrimLeft(id, requestIDChars) != "" {
			id = NewRequestID()
		}
		sp := NewSpan(id)
		w.Header().Set(RequestIDHeader, id)
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(WithSpan(r.Context(), sp)))
		if d := time.Since(start); log != nil && slow > 0 && d >= slow {
			log.Warn("slow request", "req", id, "path", r.URL.Path,
				"ms", d.Milliseconds(), "crumbs", sp.String())
		}
	})
}

// MountPprof registers the net/http/pprof handlers on mux under
// /debug/pprof/. The cmds gate this behind their -pprof flag: profiling
// endpoints expose goroutine stacks and heap contents, so they stay off
// unless explicitly requested.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
