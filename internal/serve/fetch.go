package serve

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/fsio"
	"repro/internal/resil"
)

// The miss path: the reader that missed fetches, on its own goroutine.
//
// This replaces a fetcher goroutine per physical file (CkIO's aggregator
// pattern), whose queue gave singleflight and batched the misses that piled
// up behind a read. On the real-FS ladder the batching never paid — 0.0001
// (serve-cold) and 0.004 (ckpt-large) of the misses were resolved by
// somebody else's fetch — while the queue cost every miss two channel
// hand-offs and a batch's maps and buffers, and kept one backend read in
// flight per file: the serialisation the multifile layout exists to avoid
// (many tasks, one file, uncoordinated block-aligned requests — paper §3).
//
// Singleflight, the part that did pay, stays as a per-file table of block
// ranges being fetched (flightTable): a reader claims the range its
// missing blocks span; a claim overlapping one in flight waits for it and
// then finds those blocks resident. Readers of disjoint ranges never meet,
// and the table's lock covers table updates only, never a backend read.

// blockRange is the half-open cache-block range [lo, hi) of one file.
type blockRange struct{ lo, hi int64 }

// flightTable is one physical file's in-flight fetches.
type flightTable struct {
	mu     sync.Mutex
	done   sync.Cond // on mu; broadcast at every release
	active []blockRange
}

func newFlightTable() *flightTable {
	t := &flightTable{}
	t.done.L = &t.mu
	return t
}

// claim registers r as in flight, first waiting out every flight that
// overlaps it. A reader holds at most one claim, so waiting cannot cycle.
func (t *flightTable) claim(r blockRange) {
	t.mu.Lock()
	for slices.ContainsFunc(t.active, func(a blockRange) bool { return a.lo < r.hi && r.lo < a.hi }) {
		t.done.Wait()
	}
	t.active = append(t.active, r)
	t.mu.Unlock()
}

// release ends the flight claimed as r and wakes the readers queued on it.
func (t *flightTable) release(r blockRange) {
	t.mu.Lock()
	i, last := slices.Index(t.active, r), len(t.active)-1
	t.active[i] = t.active[last]
	t.active = t.active[:last]
	t.mu.Unlock()
	t.done.Broadcast()
}

// spanBufs recycles the buffers spans are read into (and peer blocks
// received in) on their way to cache frames.
var spanBufs fsio.BufPool

// missCost is one request's own breadcrumbs: the dense backend reads that
// succeeded, the blocks that never touched the backend, the re-attempts.
type missCost struct {
	spans, peerFills, flightHits, retries int64
}

// fetchMissing materializes the blocks of physical file `file` that
// readAt's cache pass missed (ascending, at least one) and copies each
// block's share of the window [off, off+len(p)) into p.
//
// Under the claim on the blocks' range no one else is fetching them, so in
// order: a block resident by now was fetched by a flight this one waited
// for or just lost to (singleflight — a FlightHit, no new read); a block a
// peer cache holds is taken from there (PeerFill); the rest are fused into
// dense spans (spanEnd), each one retried backend read, or several where
// the backend's ranged-read ceiling demands (windowedSpanRead). Every span
// is attempted, and the request fails with its first failed span's error.
//
// Breaker protocol: a request that needs backend spans consults the file's
// breaker once — an open circuit fails it fast with ErrDegraded (each
// rejection advances the breaker's cooldown clock) — and after its spans
// reports one verdict: Failure if any span exhausted its retry budget on a
// transient fault, Success otherwise (a permanent error is the backend
// answering, which is evidence of health, not of overload).
func (s *Server) fetchMissing(file int, missing []int64, p []byte, off int64) (cost missCost, _ error) {
	bs := s.blockBytes
	claim := blockRange{missing[0], missing[len(missing)-1] + 1}
	s.flights[file].claim(claim)
	defer s.flights[file].release(claim)
	buf, base := spanBufs.Get((claim.hi-claim.lo)*bs), claim.lo*bs
	defer spanBufs.Put(buf) // buf holds file bytes [base, claim.hi*bs)
	frame := func(b int64) []byte { return buf[b*bs-base : (b+1)*bs-base] }
	// deliver caches block b from its frame and hands the reader its share.
	deliver := func(b int64) {
		s.cache.put(blockKey{file, b}, frame(b))
		dst, from := blockWindow(p, off, b, bs)
		copy(dst, frame(b)[from:])
	}

	absent := missing[:0]
	for _, b := range missing {
		k := blockKey{file, b}
		if dst, from := blockWindow(p, off, b, bs); s.cache.copyOut(s.cache.shardIndex(k), k, dst, from) {
			cost.flightHits++
		} else if s.peerFill != nil && s.peerFill(file, b, frame(b)) {
			deliver(b)
			cost.peerFills++
		} else {
			absent = append(absent, b)
		}
	}
	s.m.flightHits.Add(cost.flightHits)
	s.m.peerFills.Add(cost.peerFills)
	if len(absent) == 0 {
		return cost, nil
	}

	br := s.breakers[file]
	if br != nil && !br.Allow() {
		s.m.degraded.Inc()
		return cost, fmt.Errorf("serve: %s: %w", s.physNames[file], ErrDegraded)
	}
	var firstErr error
	transientGiveUp := false
	for i, j := 0, 0; i < len(absent); i = j {
		j = spanEnd(absent, i, bs, s.maxSpanGap)
		lo, hi := absent[i]*bs, (absent[j-1]+1)*bs
		r, err := s.windowedSpanRead(file, buf[lo-base:hi-base], lo)
		cost.retries += r
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if resil.Classify(err) == resil.ClassTransient {
				transientGiveUp = true
			}
			continue
		}
		cost.spans++
		s.m.fetchSpanBlocks.Add(int64(j - i))
		for _, b := range absent[i:j] {
			deliver(b)
		}
	}
	s.m.fetchSpans.Add(cost.spans)
	if br != nil {
		if transientGiveUp {
			br.Failure()
		} else {
			br.Success()
		}
	}
	return cost, firstErr
}

// spanEnd returns j such that blocks[i:j] (ascending, bs bytes each) form
// one dense span by the rule of sion.CoalesceExtents: a block joins while
// at most maxGap unwanted bytes lie between it and the span's end. It is
// restated for sorted equal-sized blocks because the general primitive
// sorts, copies and allocates; a test pins the two against each other.
func spanEnd(blocks []int64, i int, bs, maxGap int64) int {
	j := i + 1
	for j < len(blocks) && (blocks[j]-blocks[j-1]-1)*bs <= maxGap {
		j++
	}
	return j
}

// windowedSpanRead reads one dense span of physical file `file`, split
// into requests of at most Server.maxSpanBytes (0 = one request regardless
// of length) so no single backend read exceeds the backend's ranged-read
// capability. The first failing window fails the whole span — its blocks
// are re-requested together anyway.
func (s *Server) windowedSpanRead(file int, buf []byte, off int64) (retries int64, _ error) {
	ceil := s.maxSpanBytes
	if ceil <= 0 || ceil >= int64(len(buf)) {
		return s.spanRead(file, buf, off)
	}
	for w := int64(0); w < int64(len(buf)); w += ceil {
		r, err := s.spanRead(file, buf[w:min(w+ceil, int64(len(buf)))], off+w)
		retries += r
		if err != nil {
			return retries, err
		}
	}
	return retries, nil
}
