package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Span is a request-scoped breadcrumb trail: one per HTTP request (or
// any unit of work), threaded down through cluster → serve → its miss
// path → backend so the layers can record what actually happened to the
// request — cache hits, peer fills, backend reads, retries. The slow-request log
// in the HTTP front end prints the trail when a request exceeds its
// latency budget, answering "why was this one slow?" without sampling
// profilers.
//
// Spans are cheap (a mutex and a small map) but not free; they are
// per-request, never per-block. All methods are nil-safe so unthreaded
// code paths (internal maintenance reads, library callers) can pass a
// nil *Span without guards.
type Span struct {
	id string

	mu     sync.Mutex
	counts map[string]int64
}

// NewSpan returns a span with the given request ID (empty is fine —
// StartSpan generates one).
func NewSpan(id string) *Span { return &Span{id: id} }

// StartSpan returns a span with a fresh request ID.
func StartSpan() *Span { return NewSpan(NewRequestID()) }

// NewRequestID returns a 16-hex-digit random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively impossible on supported
		// platforms; a fixed ID keeps the request serviceable.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the span's request ID ("" for a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Add accumulates n into the named breadcrumb counter. Nil-safe.
func (s *Span) Add(crumb string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counts == nil {
		s.counts = make(map[string]int64, 8)
	}
	s.counts[crumb] += n
	s.mu.Unlock()
}

// Get returns the named breadcrumb count (0 for a nil span).
func (s *Span) Get(crumb string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[crumb]
}

// String renders the trail as "crumb=n" pairs sorted by crumb name —
// the slow-request log line body.
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, s.counts[k])
	}
	s.mu.Unlock()
	return b.String()
}

// spanKey is the context key type for spans.
type spanKey struct{}

// WithSpan attaches a span to a context.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom extracts the span from a context (nil when absent — safe to
// use directly, all Span methods tolerate nil).
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Crumb names recorded by the serving stack. Shared constants so the
// layers and the tests agree on spelling.
const (
	CrumbCacheHit    = "cache_hit"
	CrumbCacheMiss   = "cache_miss"
	CrumbFlightHit   = "flight_hit"
	CrumbReadAround  = "read_around"
	CrumbBackendRead = "backend_read"
	CrumbPeerFill    = "peer_fill"
	CrumbRetry       = "retry"
	CrumbFailover    = "failover"
)
