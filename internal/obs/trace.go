package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// Span is a request's breadcrumb trail, threaded down through cluster →
// serve → its miss path → backend so each layer records what happened to
// the request — cache hits, peer fills, backend reads, retries. The HTTP
// front end's slow-request log prints it, answering "why was this one
// slow?" without a sampling profiler.
//
// A span is a fixed record: its ID and one atomic counter per Crumb, so
// concurrent reads on one handle record without a lock. Every method is
// nil-safe: unthreaded paths (maintenance reads, library callers) pass nil.
type Span struct {
	id     string
	counts [numCrumbs]atomic.Int64
}

// Crumb names one of a Span's counters. The set is fixed, in name order,
// so a misspelled crumb does not compile.
type Crumb uint8

const (
	CrumbBackendRead Crumb = iota
	CrumbCacheHit
	CrumbCacheMiss
	CrumbFailover
	CrumbFlightHit
	CrumbPeerFill
	CrumbReadAround
	CrumbRetry
	numCrumbs
)

var crumbNames = [numCrumbs]string{"backend_read", "cache_hit", "cache_miss",
	"failover", "flight_hit", "peer_fill", "read_around", "retry"}

// String returns the crumb's name as the slow-request log prints it.
func (c Crumb) String() string { return crumbNames[c] }

// NewSpan returns a span with the given request ID (empty is fine).
func NewSpan(id string) *Span { return &Span{id: id} }

// reqPrefix is drawn once per process (a failed read leaves it zero; the
// IDs still differ within the process) and reqSeq counts its requests.
var (
	reqPrefix = func() (b [4]byte) { _, _ = rand.Read(b[:]); return }()
	reqSeq    atomic.Uint32
)

// NewRequestID returns a 16-hex-digit request ID, the process prefix and
// then a counter: it correlates log lines and is not a secret.
func NewRequestID() string {
	var raw [8]byte
	copy(raw[:], reqPrefix[:])
	binary.BigEndian.PutUint32(raw[4:], reqSeq.Add(1))
	var id [16]byte
	hex.Encode(id[:], raw[:])
	return string(id[:])
}

// ID returns the span's request ID ("" for a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Add accumulates n into crumb c. Nil-safe; a zero n records nothing.
func (s *Span) Add(c Crumb, n int64) {
	if s != nil && n != 0 {
		s.counts[c].Add(n)
	}
}

// Get returns crumb c's count (0 for a nil span).
func (s *Span) Get(c Crumb) int64 {
	if s == nil {
		return 0
	}
	return s.counts[c].Load()
}

// String renders the non-zero crumbs as "name=n" pairs in name order —
// the slow-request log line body.
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	var b []byte
	for c, name := range crumbNames {
		if n := s.counts[c].Load(); n != 0 {
			if len(b) > 0 {
				b = append(b, ' ')
			}
			b = fmt.Appendf(b, "%s=%d", name, n)
		}
	}
	return string(b)
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
