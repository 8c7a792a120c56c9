package serve

import (
	"fmt"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/resil"
)

// Per-physical-file fetcher: the only entity that issues backend reads for
// its file. Serializing misses through one goroutine per file is what CkIO
// calls the aggregator pattern — it gives singleflight semantics for free
// (a miss queued behind an identical in-flight miss finds the block cached
// when its turn comes, instead of issuing a duplicate read) and makes
// request coalescing natural: every miss that accumulates while the
// previous batch is on the wire is merged into the next batch, and the
// batch's blocks are fused into dense span reads with the same
// gap-splitting logic the mapped collective open uses
// (sion.CoalesceExtents).

// fetchReq asks the fetcher to materialize a set of cache blocks.
type fetchReq struct {
	blocks []int64 // sorted block indices the caller missed
	reply  chan fetchRes
}

// fetchRes answers one request of a batch: data maps each requested block
// to its full cache-block payload (shared, immutable). Requests are
// answered individually — a span failure fails only the requests whose
// blocks it covered, so one client's doomed read does not fail the
// neighbors batched with it. stats describes the whole batch's work and
// is shared by every answer (the batch's cost is genuinely shared); span
// breadcrumbs are therefore batch-level, not per-requester.
type fetchRes struct {
	data  map[int64][]byte
	err   error
	stats batchStats
}

// batchStats is what one fetcher batch cost: spans/spanBlocks are the
// dense backend reads issued and the cache blocks they materialized
// (their ratio is the span-fusion win), peerFills and flightHits the
// blocks that never touched the backend, retries the span re-attempts.
type batchStats struct {
	spans, spanBlocks     int64
	peerFills, flightHits int64
	retries               int64
}

type fetcher struct {
	s    *Server
	file int
	fh   fsio.File
	reqs chan *fetchReq
	done chan struct{}
}

func newFetcher(s *Server, file int, fh fsio.File) *fetcher {
	f := &fetcher{
		s:    s,
		file: file,
		fh:   fh,
		reqs: make(chan *fetchReq, 64),
		done: make(chan struct{}),
	}
	go f.loop()
	return f
}

// fetch blocks until the fetcher has materialized the given blocks.
func (f *fetcher) fetch(blocks []int64) fetchRes {
	req := &fetchReq{blocks: blocks, reply: make(chan fetchRes, 1)}
	f.reqs <- req
	return <-req.reply
}

// stop closes the request channel and waits for the loop to drain. The
// caller (Server.Close) guarantees no fetch is in flight.
func (f *fetcher) stop() {
	close(f.reqs)
	<-f.done
}

func (f *fetcher) loop() {
	defer close(f.done)
	for req := range f.reqs {
		batch := []*fetchReq{req}
		batch = f.collect(batch)
		f.serve(batch)
	}
}

// collect widens the batch with everything already queued — the misses
// that arrived while the previous batch was on the wire, which is what
// matters at steady load.
func (f *fetcher) collect(batch []*fetchReq) []*fetchReq {
	for {
		select {
		case r, ok := <-f.reqs:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		default:
			return batch
		}
	}
}

// serve materializes the union of the batch's blocks — from the cache
// where a previous batch already fetched them (the singleflight path),
// then from peer caches when a PeerFill hook is installed, otherwise with
// one retried backend read per dense span — and answers every request
// individually: a request succeeds iff all of its blocks materialized,
// and a request whose blocks did not materialize is answered with the
// error of the span that covered *its own* blocks, so one client's
// doomed read neither fails nor mislabels the neighbors batched with it.
//
// Breaker protocol: when backend spans are needed, the batch consults the
// file's breaker once — an open circuit fails the needy requests fast with
// ErrDegraded (each rejection advances the breaker's cooldown clock).
// After the spans run, the batch reports one verdict: Failure if any span
// exhausted its retry budget on a transient fault, Success otherwise
// (a permanent error is the backend answering, which is evidence of
// health, not of overload).
func (f *fetcher) serve(batch []*fetchReq) {
	s := f.s
	s.m.fetchBatches.Inc()
	bs := s.blockBytes
	want := make(map[int64][]byte)
	for _, r := range batch {
		for _, b := range r.blocks {
			want[b] = nil
		}
	}
	var stats batchStats
	var missing []sion.Extent
	for b := range want {
		k := blockKey{f.file, b}
		if data, ok := s.cache.get(k); ok {
			want[b] = data
			s.m.flightHits.Inc()
			stats.flightHits++
			continue
		}
		if s.peerFill != nil {
			if data, ok := s.peerFill(f.file, b); ok && int64(len(data)) == bs {
				want[b] = data
				s.cache.put(k, data)
				s.m.peerFills.Inc()
				stats.peerFills++
				continue
			}
		}
		missing = append(missing, sion.Extent{Off: b * bs, Len: bs})
	}
	var breakerErr error         // covers every unmaterialized block (fail fast)
	var blockErr map[int64]error // per-block span errors otherwise
	if len(missing) > 0 {
		br := s.breakers[f.file]
		if br != nil && !br.Allow() {
			breakerErr = fmt.Errorf("serve: %s: %w", s.physNames[f.file], ErrDegraded)
		} else {
			transientGiveUp := false
			for _, sp := range sion.CoalesceExtents(missing, s.maxSpanGap) {
				buf := make([]byte, sp.End-sp.Off)
				// A short read past EOF leaves the zero fill of make,
				// matching the ReadAt contract for unwritten regions.
				// Spans longer than the backend's ranged-read ceiling
				// (Server.maxSpanBytes, from the capability descriptor)
				// are read in several block-aligned requests.
				retries, rerr := f.windowedSpanRead(buf, sp.Off)
				stats.retries += retries
				if rerr != nil {
					if blockErr == nil {
						blockErr = make(map[int64]error)
					}
					for _, e := range sp.Extents {
						blockErr[e.Off/bs] = rerr
					}
					if resil.Classify(rerr) == resil.ClassTransient {
						transientGiveUp = true
					}
					continue
				}
				stats.spans++
				stats.spanBlocks += int64(len(sp.Extents))
				s.m.fetchSpans.Inc()
				s.m.fetchSpanBlocks.Add(int64(len(sp.Extents)))
				for _, e := range sp.Extents {
					data := buf[e.Off-sp.Off : e.Off-sp.Off+bs]
					if len(sp.Extents) > 1 {
						// Copy blocks out of multi-block spans so evicting one
						// block releases its bytes instead of pinning the span.
						data = append([]byte(nil), data...)
					}
					b := e.Off / bs
					want[b] = data
					s.cache.put(blockKey{f.file, b}, data)
				}
			}
			if br != nil {
				if transientGiveUp {
					br.Failure()
				} else {
					br.Success()
				}
			}
		}
	}
	for _, r := range batch {
		res := fetchRes{data: want, stats: stats}
		for _, b := range r.blocks {
			if want[b] == nil {
				if breakerErr != nil {
					res.err = breakerErr
					s.m.degraded.Inc()
				} else {
					res.err = blockErr[b]
				}
				break
			}
		}
		r.reply <- res
	}
}

// windowedSpanRead reads one dense span, split into requests of at most
// Server.maxSpanBytes (0 = one request regardless of length) so no
// single backend read exceeds the backend's ranged-read capability. The
// first failing window fails the whole span — its blocks are
// re-requested together anyway.
func (f *fetcher) windowedSpanRead(buf []byte, off int64) (retries int64, _ error) {
	s := f.s
	max := s.maxSpanBytes
	if max <= 0 || max >= int64(len(buf)) {
		return s.spanRead(f.fh, f.file, buf, off)
	}
	for w := int64(0); w < int64(len(buf)); w += max {
		end := w + max
		if end > int64(len(buf)) {
			end = int64(len(buf))
		}
		r, err := s.spanRead(f.fh, f.file, buf[w:end], off+w)
		retries += r
		if err != nil {
			return retries, err
		}
	}
	return retries, nil
}
