package serve

import (
	"fmt"
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
// Singleflight, the part that did pay, lives in the cache map: a reader
// settles each block it missed with one acquire under the block's shard
// lock, which copies the bytes out if they are resident by now, enters a
// pending entry for the reader to fill, or reports another reader's pending
// entry. A reader reserves blocks in order up to the first such one, reads
// and commits (or aborts) its own, and only then waits, holding nothing —
// so waits cannot cycle, and no lock is held across a backend read.
//
// A first miss reads only the FS blocks its window touches (paper §3.1:
// the file system does the work a task asks for), so a 4 KiB request in a
// 32 KiB cache block moves 4 or 8 KiB, not 32. A later window the partial
// frame does not cover extends it in place to the hull of the two ranges
// and reads only what the frame lacks of it; a window that starts inside
// the frame or right after it reads on to the block's end, so sequential
// small reads move each byte once in two reads per block. The exception
// keeps spans whole: a block whose window touches one of its edges is read
// from or to that edge, since a span's vectors join end to end. With cache
// blocks of one FS block (the sim profiles, live servers) a first fill is
// the whole block — up to a live frontier, where it stops at the committed
// end of the current snapshot (tail.go), and the next commit's re-fill
// reads only the bytes past the old end. A window past the end (only a raw
// ReadFileAt asks for one) is read around.
//
// A missed block is read straight into the cache frame it will live in:
// each dense span is one vectored backend read (fsio.ReadvAt) whose
// vectors are those frames, so an admitted missed byte is copied twice —
// kernel to frame, frame to caller. A block a full shard declines
// (cache.go) is read around the cache: its vector is the caller's own
// window, so its bytes are copied once. So is a resident block a span
// bridges between two absent ones: the cache pass pins its frame instead
// of copying it out (blockCache.pin), and the span reads the block into
// its share of the window. (A block between two absent ones that another
// reader or a peer filled meanwhile is in p already; the span writes the
// same committed bytes over it.) A run of read-around and bridged blocks
// is one vector, so a span of them is one plain read into the caller's
// buffer. A pinned block no successful span read — after the last miss,
// past a gap wider than MaxSpanGap, across a round's end, in a failed
// span — is copied from its frame once the fetch is over.

// missScratch is one request's miss bookkeeping, pooled so that a miss of
// any size allocates nothing: the blocks the cache pass missed, the
// resident blocks it pinned after its first miss, the absent blocks of the
// round being read with what each read fills, and the read vectors of the
// span being read.
type missScratch struct {
	missed []int64
	pinned []pinnedBlock // ascending
	absent []int64
	fills  []fill // fills[i] is absent[i]'s
	vecs   [][]byte
}

// pinnedBlock is a hit the cache pass pinned rather than copied: its
// entry, the pinned frame from where the window's share of the block
// starts, and whether a successful span read that share straight into the
// window.
type pinnedBlock struct {
	block int64
	e     *cacheEntry
	src   []byte
	read  bool
}

// fill is what the read of one absent block fills: the part of its
// pending entry's frame that the entry did not already hold, or — read
// around the cache (e nil) — its share of the caller's window; dst, at
// offset from in the block.
type fill struct {
	e    *cacheEntry
	dst  []byte
	from int64
}

var missScratches = sync.Pool{New: func() any { return new(missScratch) }}

// getMissScratch returns a pooled scratch with empty miss and pin lists.
func getMissScratch() *missScratch {
	sc := missScratches.Get().(*missScratch)
	sc.missed, sc.pinned = sc.missed[:0], sc.pinned[:0]
	return sc
}

// done copies each pinned block that no successful span read into the
// window [off, off+len(p)) from its frame, releases every pin, and returns
// sc to the pool, holding no frame or caller buffer alive.
func (sc *missScratch) done(p []byte, off, bs int64) {
	for _, pb := range sc.pinned {
		if !pb.read {
			dst, _ := blockWindow(p, off, pb.block, bs)
			copy(dst, pb.src)
		}
		pb.e.unpin()
	}
	clear(sc.pinned)
	clear(sc.fills)
	clear(sc.vecs)
	missScratches.Put(sc)
}

// spanVecs lists the absent blocks [i, j) of one dense span as read
// vectors: what each one fills, and for every block between two of them,
// which lies wholly inside the window [off, off+len(p)), its share of p.
func (sc *missScratch) spanVecs(i, j int, p []byte, off, bs int64) [][]byte {
	v := sc.vecs[:0]
	for x := i; x < j; x++ {
		for b := sc.absent[max(x-1, i)] + 1; b < sc.absent[x]; b++ {
			dst, _ := blockWindow(p, off, b, bs)
			v = append(v, dst)
		}
		v = append(v, sc.fills[x].dst)
	}
	sc.vecs = v
	return v
}

// bridged marks the pinned blocks between absent blocks lo and hi, which
// a successful span read into the window, as delivered.
func (sc *missScratch) bridged(lo, hi int64) {
	for x := range sc.pinned {
		if b := sc.pinned[x].block; lo < b && b < hi {
			sc.pinned[x].read = true
		}
	}
}

// missCost is one request's own breadcrumbs: the dense backend reads that
// succeeded and the blocks they materialized, the blocks that never
// touched the backend, the blocks read around the cache, the re-attempts.
type missCost struct {
	spans, spanBlocks, peerFills, flightHits, readAround, retries int64
}

// fetchMissing materializes the blocks of physical file `file` that
// readAt's cache pass missed (sc.missed: ascending, at least one) and
// copies each block's share of the window [off, off+len(p)) into p. It
// marks the pinned blocks its spans read into p (sc.pinned), which the
// caller need not copy.
//
// It acquires the blocks in order. One resident by now was filled by
// another reader (singleflight — a FlightHit, no new read); one another
// reader is filling ends the round. A full shard may decline a block of a
// window of an FS block or more: its share of p is read around the cache.
// Each other block gets a pending entry over the FS blocks its share of
// the window touches (fillRange), or, if a partial copy was resident, over
// the hull of the two, whose read skips what the copy holds (acquire). A
// peer cache holding the bytes a block's read would fill fills them
// (PeerFill); the rest are fused into dense spans (spanEnd),
// each one retried vectored backend read into their frames and windows —
// the blocks a span bridges into their shares of p — or several where the
// backend's ranged-read ceiling demands (windowedSpanRead). A filled frame
// is copied out to p and then committed; the entries of a failed span, or
// of a request the breaker rejects, are aborted. Then the reader waits for
// the block that ended the round and goes on from it. Every span is
// attempted, and the request fails with its first failed span's error.
//
// Breaker protocol: a request that needs backend spans consults the file's
// breaker once — an open circuit fails it fast with ErrDegraded (each
// rejection advances the breaker's cooldown clock) — and after its spans
// reports one verdict: Failure if any span exhausted its retry budget on a
// transient fault, Success otherwise (a permanent error is the backend
// answering, which is evidence of health, not of overload).
//
// What the fetch costs counts in the request's cell c (serverMetrics).
func (s *Server) fetchMissing(file int, c *shardCell, sc *missScratch, p []byte, off int64) (cost missCost, err error) {
	bs := s.blockBytes
	around := int64(len(p)) >= s.fsBlock
	// deliver hands the reader its share of e's block, then commits e: the
	// copy must come first, a resident frame can be recycled at once.
	deliver := func(e *cacheEntry) {
		dst, from := blockWindow(p, off, e.key.block, bs)
		copy(dst, e.data[from:])
		s.cache.commit(e)
	}
	// settle ends the pending entries of fills: committed once read, or
	// aborted.
	settle := func(fills []fill, read bool) {
		for _, f := range fills {
			switch {
			case f.e == nil: // read around the cache: p holds it, or the request fails
			case read:
				deliver(f.e)
			default:
				s.cache.abort(f.e)
			}
		}
	}

	snap := s.snap.Load()
	br := s.breakers[file]
	admitted, transientGiveUp := false, false
	missing := sc.missed
	for x := 0; x < len(missing); {
		sc.absent, sc.fills = sc.absent[:0], sc.fills[:0]
		for ; x < len(missing); x++ {
			b := missing[x]
			dst, from := blockWindow(p, off, b, bs)
			top := snap.StableEnd(file, b*bs, (b+1)*bs) - b*bs
			if from+int64(len(dst)) > top {
				sc.absent, sc.fills = append(sc.absent, b), append(sc.fills, fill{nil, dst, from})
				continue
			}
			lo, hi := s.fillRange(b, dst, from)
			f, got := s.cache.acquire(blockKey{file, b}, dst, from, lo, min(hi, top), top, bs, around)
			if got == claimWait {
				break
			}
			switch got {
			case claimHit:
				cost.flightHits++
				continue
			case claimAround:
				cost.readAround++
			}
			if s.peerFill != nil && s.peerFill(file, b, f.dst, f.from) {
				if f.e != nil {
					deliver(f.e)
				}
				cost.peerFills++
				continue
			}
			sc.absent, sc.fills = append(sc.absent, b), append(sc.fills, f)
		}
		absent, fills := sc.absent, sc.fills

		if len(absent) > 0 && !admitted {
			if br != nil && !br.Allow() {
				settle(fills, false)
				s.m.degraded.Inc()
				err = fmt.Errorf("serve: %s: %w", s.physNames[file], ErrDegraded)
				break
			}
			admitted = true
		}
		for i, j := 0, 0; i < len(absent); i = j {
			j = spanEnd(absent, i, bs, s.maxSpanGap)
			r, serr := s.windowedSpanRead(file, c, sc.spanVecs(i, j, p, off, bs), absent[i]*bs+fills[i].from)
			cost.retries += r
			settle(fills[i:j], serr == nil)
			if serr != nil {
				if err == nil {
					err = serr
				}
				if resil.Classify(serr) == resil.ClassTransient {
					transientGiveUp = true
				}
				continue
			}
			sc.bridged(absent[i], absent[j-1])
			cost.spans++
			cost.spanBlocks += int64(j - i)
		}
		if x < len(missing) {
			s.cache.wait(blockKey{file, missing[x]})
		}
	}
	s.m.missDone(c, cost)
	if admitted && br != nil {
		if transientGiveUp {
			br.Failure()
		} else {
			br.Success()
		}
	}
	return cost, err
}

// fillRange is the part of cache block b that a first miss of the window
// [from, from+len(dst)) of it reads: the FS blocks the window touches,
// aligned in absolute file offsets and clamped to the block. With cache
// blocks of one FS block it is always the whole block.
func (s *Server) fillRange(b int64, dst []byte, from int64) (lo, hi int64) {
	base, fb := b*s.blockBytes, s.fsBlock
	lo = max((base+from)/fb*fb-base, 0)
	hi = min((base+from+int64(len(dst))+fb-1)/fb*fb-base, s.blockBytes)
	return lo, hi
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

// windowedSpanRead reads one dense span of physical file `file`, from off
// onwards, into vecs (one per block: an absent block's frame range or
// window share, or the window share of a bridged one), split into
// requests of at most Server.maxSpanBytes (0 = one request regardless of
// length) so no single backend read exceeds the backend's ranged-read
// capability. Each request starts where its predecessor's vectors end:
// only a span's first block may start late and only its last may end
// early, the ends of the request's window. The first failing window fails
// the whole span — its blocks are re-requested together anyway.
func (s *Server) windowedSpanRead(file int, c *shardCell, vecs [][]byte, off int64) (retries int64, _ error) {
	per := len(vecs) // blocks per request
	if s.maxSpanBytes > 0 {
		per = int(s.maxSpanBytes / s.blockBytes)
	}
	for w := 0; w < len(vecs); w += per {
		win := vecs[w:min(w+per, len(vecs))]
		next := off
		for _, v := range win {
			next += int64(len(v))
		}
		r, err := s.spanRead(file, c, fuse(win), off)
		retries += r
		if err != nil {
			return retries, err
		}
		off = next
	}
	return retries, nil
}

// fuse joins, in place, each vector that continues its predecessor in
// memory — the window shares of a run of blocks read around the cache or
// bridged are consecutive slices of the caller's buffer — so such a run is
// one vector: one plain read where the backend has no vectored one.
func fuse(vecs [][]byte) [][]byte {
	out := vecs[:1]
	for _, v := range vecs[1:] {
		last := &out[len(out)-1]
		if n := len(*last); len(v) > 0 && cap(*last)-n >= len(v) && &(*last)[:n+1][n] == &v[0] {
			*last = (*last)[:n+len(v)]
			continue
		}
		out = append(out, v)
	}
	return out
}
