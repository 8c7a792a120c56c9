package sion

import "sort"

// Span coalescing: the one primitive behind every "few dense reads instead
// of many small ones" path in this repository. The mapped collective open
// (mapped.go) uses it to fetch a collector group's owned chunk regions with
// one read per dense run, and the read-serving subsystem (internal/serve)
// merges a read's cache-block misses into dense span reads by the same
// rule — restated there for sorted equal-sized blocks so that a miss
// allocates nothing, and pinned against this implementation by a test, so
// the two layers' gap-splitting semantics cannot drift apart.

// Extent is one caller-tagged byte range [Off, Off+Len) inside a physical
// file. Idx is an opaque caller tag (typically an index into a parallel
// slice) preserved through coalescing so the caller can route each span's
// bytes back to whoever asked for them.
type Extent struct {
	Off int64
	Len int64
	Idx int
}

// Span is one dense read request [Off, End) covering Extents, which are
// sorted by offset and lie fully inside the span.
type Span struct {
	Off, End int64
	Extents  []Extent
}

// DefaultSpanGap bounds the unwanted bytes a span read may fetch between
// two requested extents. Contiguous layouts (balanced mapped ownership,
// sequential cache blocks) leave only alignment slack between extents
// (well under one chunk), so dense runs still move in one read; a sparse
// request pattern (e.g. a collector group owning the first and last writer
// rank) is split at the gaps instead of fetching — and allocating — the
// whole distance between them.
const DefaultSpanGap = 1 << 20

// CoalesceExtents merges extents into dense spans whose internal gaps do
// not exceed maxGap: the result is the minimal set of reads that covers
// every extent without ever bridging a hole larger than maxGap bytes.
// Extents may overlap and arrive in any order; maxGap 0 merges only
// touching or overlapping extents.
func CoalesceExtents(exts []Extent, maxGap int64) []Span {
	if len(exts) == 0 {
		return nil
	}
	sorted := append([]Extent(nil), exts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	spans := []Span{{Off: sorted[0].Off, End: sorted[0].Off + sorted[0].Len, Extents: sorted[:1:1]}}
	for _, e := range sorted[1:] {
		cur := &spans[len(spans)-1]
		if e.Off-cur.End <= maxGap {
			cur.Extents = append(cur.Extents, e)
			if end := e.Off + e.Len; end > cur.End {
				cur.End = end
			}
			continue
		}
		spans = append(spans, Span{Off: e.Off, End: e.Off + e.Len, Extents: []Extent{e}})
	}
	return spans
}
