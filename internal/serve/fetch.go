package serve

import (
	"fmt"
	"io"
	"sync"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/resil"
)

// The miss path: the reader that missed fetches, on its own goroutine. It
// replaced a fetcher goroutine per physical file (CkIO's aggregator
// pattern), whose batching never paid on the real-FS ladder — 0.0001
// (serve-cold) and 0.004 (ckpt-large) of the misses were resolved by
// somebody else's fetch — while its queue cost every miss two channel
// hand-offs and serialised each file's backend reads, which the multifile
// layout exists to avoid (many tasks, one file — paper §3).
//
// Singleflight, the part that did pay, lives in the cache map. A read's
// cache pass visits each block's shard once, under its lock: until the
// first miss it copies hits out; the first miss and every block after it
// it settles in that same visit — a hit pinned, a pending entry the reader
// fills, or a block read around the cache (acquire, claimMiss) — up to the
// first block another reader is filling; past that it pins hits and
// claims nothing, so that one reader reads a contested window whole. So
// the fetch locks no shard the pass visited, but after such a block. A
// reader reads and commits (or aborts) its own entries and only then
// waits for another's, holding nothing — so waits cannot cycle, and no
// lock is held across a backend read. A pass holds a
// claim from its first miss on, so the first miss takes the fetch's close
// guard without waiting (guardFetch): a Close in progress fails the read
// rather than parking it, claim in hand, on a guard Close holds while it
// waits for a reader that waits for that claim. One visit instead of two
// per missed block was worth about 2 % of serve-cold's serve_vs_pread.
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
// each dense span is one backend read (fsio.ReadvAt: a preadv, or a pread
// of one vector) whose vectors are those frames, so an admitted missed
// byte is copied twice — kernel to frame, frame to caller. A block a full
// shard declines (cache.go) is read around the cache: its vector is the
// caller's own window, so its bytes are copied once. So is a resident
// block a span bridges between two absent ones: the cache pass pins its
// frame instead of copying it out (acquire with pin), and the span reads
// the block into its share of the window. (A block between two absent ones
// that a peer filled is in p already, and one another reader is filling
// will be; the span writes the same committed bytes over it.) A run of
// read-around and bridged blocks is one vector, so a span of them is one
// pread into the caller's buffer. A pinned block no successful span read —
// after the last miss, past a gap wider than MaxSpanGap, between two
// rounds, in a failed span — is copied from its frame once the fetch is
// over. So a window a full cache declines costs its shard visits, one key
// hash each, one pread under its cell's close guard (the retry budget only
// after a failure) and its counters, added once to one line of its cell.

// missScratch is one request's miss bookkeeping, pooled so that a miss of
// any size allocates nothing: the resident blocks the cache pass pinned
// after its first miss, the blocks it left to acquire after waiting for
// another reader's, the absent blocks of the round being read with what
// each read fills, and the read vectors of the span being read.
type missScratch struct {
	pinned []pinnedBlock // ascending
	missed []int64       // ascending
	absent []int64       // ascending
	fills  []fill        // fills[i] is absent[i]'s
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

// getMissScratch returns a pooled scratch with empty lists.
func getMissScratch() *missScratch {
	sc := missScratches.Get().(*missScratch)
	sc.pinned, sc.missed, sc.absent, sc.fills = sc.pinned[:0], sc.missed[:0], sc.absent[:0], sc.fills[:0]
	return sc
}

// add records the claim of block b that missed, which the caller fills or
// reads around, as absent, and counts a read-around in cost.
func (sc *missScratch) add(b int64, f fill, got claim, cost *missCost) {
	if got == claimAround {
		cost.readAround++
	}
	sc.absent, sc.fills = append(sc.absent, b), append(sc.fills, f)
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

// missCost is one request's own breadcrumbs and counts: the dense backend
// reads that succeeded and the blocks they materialized, the blocks that
// never touched the backend, the blocks read around the cache, the
// re-attempts, and every attempt's backend read with the bytes it asked
// for. The fetch adds it to the request's cell once (missDone).
type missCost struct {
	spans, spanBlocks, peerFills, flightHits, readAround, retries int64
	reads, readBytes                                              int64
}

// fetchMissing materializes the blocks of physical file `file` that
// readAt's cache pass claimed (sc.absent) or left for later (sc.missed)
// and copies each block's share of the window [off, off+len(p)), off on
// the file's block grid, into p. It marks the pinned blocks its spans read
// into p (sc.pinned), which the caller need not copy.
//
// The pass settled each block in one visit of its shard (acquire): a
// pending entry over the FS blocks its share of the window touches
// (fillRange), or, if a partial copy was resident, over the hull of the
// two, whose read skips what the copy holds; or a block a full shard
// declined or that reaches past a live frontier, whose share of p is read
// around the cache. A peer cache holding the bytes a block's read would
// fill fills them (PeerFill); the rest are fused into dense spans
// (spanEnd), each one retried vectored backend read into their frames and
// windows — the blocks a span bridges into their shares of p — or several
// where the backend's ranged-read ceiling demands (windowedSpanRead). A
// filled frame is copied out to p and then committed; the entries of a
// failed span, or of a request the breaker rejects, are aborted. That ends
// a round, and with a pass that met no other reader's pending entry, the
// fetch: it visits no shard the pass visited. A pass that met one claimed
// nothing from it on (so one reader of a contested window reads it whole)
// and left its misses in sc.missed: the reader waits for that block,
// holding no pending entry, then acquires the blocks left, in order, up to
// the next one another reader is filling — one resident by now was filled
// by another reader (singleflight: a FlightHit, no new read) — reads them
// as the next round, and so on. Every span is attempted, and the request
// fails with its first failed span's error.
//
// Breaker protocol: a request that needs backend spans consults the file's
// breaker once — an open circuit fails it fast with ErrDegraded (each
// rejection advances the breaker's cooldown clock) — and after its spans
// reports one verdict: Failure if any span exhausted its retry budget on a
// transient fault, Success otherwise (a permanent error is the backend
// answering, which is evidence of health, not of overload).
//
// What the fetch costs counts in cost, which it adds to the request's cell
// c once (serverMetrics.missDone).
func (s *Server) fetchMissing(file int, c *shardCell, sc *missScratch, snap *sion.Layout, p []byte, off int64, cost *missCost) (err error) {
	bs := s.blockBytes
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

	br := s.breakers[file]
	admitted, transientGiveUp := false, false
	for x := 0; ; {
		if s.peerFill != nil {
			n := 0
			for i, b := range sc.absent {
				if f := sc.fills[i]; s.peerFill(file, b, f.dst, f.from) {
					if f.e != nil {
						deliver(f.e)
					}
					cost.peerFills++
					continue
				}
				sc.absent[n], sc.fills[n] = b, sc.fills[i]
				n++
			}
			sc.absent, sc.fills = sc.absent[:n], sc.fills[:n]
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
			serr := s.readSpan(file, c, sc.spanVecs(i, j, p, off, bs), absent[i]*bs+fills[i].from-s.shift[file], cost)
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
		if x == len(sc.missed) {
			break
		}
		s.cache.wait(blockKey{file, sc.missed[x]})
		sc.absent, sc.fills = sc.absent[:0], sc.fills[:0]
		for ; x < len(sc.missed); x++ {
			b := sc.missed[x]
			f, got := s.visit(snap, s.cache.shardIndex(blockKey{file, b}), file, p, off, b, false)
			if got == claimWait {
				break
			}
			if got == claimHit {
				cost.flightHits++
				continue
			}
			sc.add(b, f, got, cost)
		}
	}
	s.m.missDone(c, *cost)
	if admitted && br != nil {
		if transientGiveUp {
			br.Failure()
		} else {
			br.Success()
		}
	}
	return err
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

// readSpan reads one dense span of physical file `file`, from off
// onwards, into vecs (one per block: an absent block's frame range or
// window share, or the window share of a bridged one), split into
// requests of at most Server.maxSpanBytes (0 = one request regardless of
// length) so no single backend read exceeds the backend's ranged-read
// capability. Each request starts where its predecessor's vectors end:
// only a span's first block may start late and only its last may end
// early, the ends of the request's window. The first failing request
// fails the whole span — its blocks are re-requested together anyway.
// A request is one backend read (readv); only one that fails goes on, as
// the first attempt of the server's retry budget (resil.Do). Every attempt
// counts in cost as a backend read of the request's bytes.
func (s *Server) readSpan(file int, c *shardCell, vecs [][]byte, off int64, cost *missCost) error {
	per := len(vecs) // blocks per request
	if s.maxSpanBytes > 0 {
		per = int(s.maxSpanBytes / s.blockBytes)
	}
	for w := 0; w < len(vecs); w += per {
		win, size := fuse(vecs[w:min(w+per, len(vecs))])
		attempts, err := int64(1), s.readv(file, win, off)
		if err != nil {
			failed := err // the budget's first attempt
			err = resil.Do(s.retry, &c.retry, func() error {
				if e := failed; e != nil {
					failed = nil
					return e
				}
				attempts++
				return s.readv(file, win, off)
			})
		}
		cost.reads += attempts
		cost.readBytes += attempts * size
		cost.retries += attempts - 1
		if err != nil {
			return fmt.Errorf("serve: %s: span read at %d: %w", s.physNames[file], off, err)
		}
		off += size
	}
	return nil
}

// readv is one attempt of a span's request: one backend read of vecs from
// off (fsio.ReadvAt: a vectored read, or a ReadAt where the backend has
// none). io.EOF is a legal short read, not a failure: what it left unread
// is cleared (vecs are recycled frames; bytes past EOF read as zeros,
// matching the ReadAt contract for unwritten regions).
func (s *Server) readv(file int, vecs [][]byte, off int64) error {
	n, err := fsio.ReadvAt(s.files[file], vecs, off)
	if err == io.EOF {
		for _, v := range vecs {
			clear(v[min(n, len(v)):])
			n -= min(n, len(v))
		}
		return nil
	}
	return err
}

// fuse joins, in place, each vector that continues its predecessor in
// memory — the window shares of a run of blocks read around the cache or
// bridged are consecutive slices of the caller's buffer — so such a run is
// one vector: one pread, or one plain read where the backend has no
// vectored one. It returns the vectors and their bytes.
func fuse(vecs [][]byte) ([][]byte, int64) {
	out, size := vecs[:1], int64(len(vecs[0]))
	for _, v := range vecs[1:] {
		size += int64(len(v))
		last := &out[len(out)-1]
		if n := len(*last); len(v) > 0 && cap(*last)-n >= len(v) && &(*last)[:n+1][n] == &v[0] {
			*last = (*last)[:n+len(v)]
			continue
		}
		out = append(out, v)
	}
	return out, size
}
