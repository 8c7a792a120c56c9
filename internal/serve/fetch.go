package serve

import (
	"fmt"
	"slices"
	"sync"

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
//
// A missed block is read straight into the cache frame it will live in: the
// reader reserves a frame per absent block, and each dense span is one
// vectored backend read (fsio.ReadvAt) whose vectors are those frames, so
// a missed byte is copied twice — kernel to frame, frame to caller — where
// a span buffer in between made it three times.

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

// missScratch is one fetch's bookkeeping, pooled so that a miss of any
// size allocates nothing: the reservation of each absent block, the read
// vectors of the span being read, and a block-sized frame that the blocks
// inside a span which are not absent are read into and dropped.
type missScratch struct {
	frames  []*cacheEntry
	vecs    [][]byte
	discard []byte
}

var missScratches = sync.Pool{New: func() any { return new(missScratch) }}

// spanVecs lists the blocks [blocks[0], last] of one dense span as read
// vectors: each absent block's frame, and the discard frame for every
// block between two of them.
func (sc *missScratch) spanVecs(blocks []int64, frames []*cacheEntry, bs int64) [][]byte {
	v := sc.vecs[:0]
	for x, b := range blocks {
		for gap := b - blocks[max(x-1, 0)] - 1; gap > 0; gap-- {
			if int64(cap(sc.discard)) < bs {
				sc.discard = make([]byte, bs)
			}
			v = append(v, sc.discard[:bs])
		}
		v = append(v, frames[x].data)
	}
	sc.vecs = v
	return v
}

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
// for or just lost to (singleflight — a FlightHit, no new read); any other
// gets a reserved frame, which a peer cache holding the block fills
// (PeerFill); the rest are fused into dense spans (spanEnd), each one
// retried vectored backend read into their frames, or several where the
// backend's ranged-read ceiling demands (windowedSpanRead). Every span is
// attempted, and the request fails with its first failed span's error. A
// filled frame is copied out to p and then committed; the frames of a
// failed span, or of a request the breaker rejects, are aborted.
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
	sc := missScratches.Get().(*missScratch)
	defer func() {
		clear(sc.frames)
		clear(sc.vecs) // a pooled scratch should not keep frames alive
		missScratches.Put(sc)
	}()
	// deliver hands the reader its share of block b from reservation e, then
	// publishes e: the copy must come first, a published frame can be
	// recycled at once.
	deliver := func(b int64, e *cacheEntry) {
		dst, from := blockWindow(p, off, b, bs)
		copy(dst, e.data[from:])
		s.cache.commit(e)
	}

	absent, frames := missing[:0], sc.frames[:0] // frames[i] is absent[i]'s reservation
	for _, b := range missing {
		k := blockKey{file, b}
		if dst, from := blockWindow(p, off, b, bs); s.cache.copyOut(s.cache.shardIndex(k), k, dst, from) {
			cost.flightHits++
			continue
		}
		e := s.cache.reserve(k, bs)
		if s.peerFill != nil && s.peerFill(file, b, e.data) {
			deliver(b, e)
			cost.peerFills++
			continue
		}
		absent, frames = append(absent, b), append(frames, e)
	}
	sc.frames = frames
	s.m.flightHits.Add(cost.flightHits)
	s.m.peerFills.Add(cost.peerFills)
	if len(absent) == 0 {
		return cost, nil
	}

	br := s.breakers[file]
	if br != nil && !br.Allow() {
		for _, e := range frames {
			s.cache.abort(e)
		}
		s.m.degraded.Inc()
		return cost, fmt.Errorf("serve: %s: %w", s.physNames[file], ErrDegraded)
	}
	var firstErr error
	transientGiveUp := false
	for i, j := 0, 0; i < len(absent); i = j {
		j = spanEnd(absent, i, bs, s.maxSpanGap)
		r, err := s.windowedSpanRead(file, sc.spanVecs(absent[i:j], frames[i:j], bs), absent[i]*bs)
		cost.retries += r
		if err != nil {
			for _, e := range frames[i:j] {
				s.cache.abort(e)
			}
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
		for x := i; x < j; x++ {
			deliver(absent[x], frames[x])
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

// windowedSpanRead reads one dense span of physical file `file` into vecs
// (one block each), split into requests of at most Server.maxSpanBytes
// (0 = one request regardless of length) so no single backend read exceeds
// the backend's ranged-read capability. The first failing window fails the
// whole span — its blocks are re-requested together anyway.
func (s *Server) windowedSpanRead(file int, vecs [][]byte, off int64) (retries int64, _ error) {
	per := len(vecs) // blocks per request
	if s.maxSpanBytes > 0 {
		per = int(s.maxSpanBytes / s.blockBytes)
	}
	for w := 0; w < len(vecs); w += per {
		r, err := s.spanRead(file, vecs[w:min(w+per, len(vecs))], off+int64(w)*s.blockBytes)
		retries += r
		if err != nil {
			return retries, err
		}
	}
	return retries, nil
}
