package serve

import (
	"fmt"
	"io"

	sion "repro/internal/core"
	"repro/internal/fsio"
)

// Tail serving: a Server over a multifile that is still being written
// (Options.Watermarks). The server keeps a live sion.TailLayout and only
// ever serves bytes below each rank's committed watermark, so clients
// never observe torn records. Cache discipline is the crux:
//
//   - Cache blocks are forced to the multifile's FS block size, not
//     New's 16 KiB floor (minCacheBlock). Chunks are FS-block-aligned
//     (paper §3.1), so no cache block ever straddles two ranks' data; a
//     larger block could, and caching it below one rank's watermark would
//     cache its neighbour's uncommitted bytes.
//   - Bytes in blocks that lie wholly below a rank's committed frontier
//     are immutable (the writer only appends past the watermark) and go
//     through the ordinary block cache.
//   - The partially committed frontier block is read directly from the
//     backend, bypassing the cache, so the cache never holds bytes that
//     may still change. Poll additionally invalidates a rank's former
//     frontier block when the frontier crosses into a new one.
//
// Sessions return sion.ErrAgain at the watermark while the writer is
// live; Follow wraps that in a polling loop whose cadence the caller
// controls (in simulations: virtual-time sleeps).

// NewTail opens a live multifile for tail serving. The multifile must
// have been created with Options.Watermarks; while the writer is still
// creating files the open fails with a not-exist error and the caller
// retries. The cache block size is forced to the multifile's FS block
// size (see above); cfg.BlockBytes is ignored.
func NewTail(fsys fsio.FileSystem, name string, cfg *Config) (*Server, error) {
	t, err := sion.LoadTailLayout(fsys, name)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var c Config
	if cfg != nil {
		c = *cfg
	}
	c.BlockBytes = t.FSBlockSize()
	s, err := newServer(fsys, name, &c, t.FSBlockSize(), t.NumFiles(), t.PhysicalName)
	if err != nil {
		t.Close()
		return nil, err
	}
	s.tail = t
	s.prevCommitted = make([]int64, t.NTasks())
	for r := range s.prevCommitted {
		s.prevCommitted[r] = t.CommittedSize(r)
	}
	return s, nil
}

// Poll re-reads the watermark sidecars, advancing every rank's visible
// frontier, and reports whether any rank's committed size grew (or the
// multifile finalized). Former frontier blocks of ranks that advanced are
// invalidated. Safe for concurrent use with Sessions.
func (s *Server) Poll() (bool, error) {
	if s.tail == nil {
		return false, nil
	}
	s.tailMu.Lock()
	defer s.tailMu.Unlock()
	s.m.tailPolls.Inc()
	wasFinal := s.tail.Finalized()
	if err := s.tail.Refresh(); err != nil {
		return false, err
	}
	advanced := s.tail.Finalized() != wasFinal
	bs := s.blockBytes
	for r := range s.prevCommitted {
		now := s.tail.CommittedSize(r)
		prev := s.prevCommitted[r]
		if now <= prev {
			continue
		}
		advanced = true
		// The block that contained the old frontier may have grown; drop
		// it (belt-and-braces — frontier bytes are never cached, see
		// Session.Read) unless the old frontier was block-aligned, in
		// which case the block below it was already complete and evicting
		// it would only force a needless refetch of a hot, immutable block
		// on every aligned commit.
		if prev > 0 && prev%bs != 0 { // there was a partially filled frontier block
			if ext, _ := s.tail.RankCommitted(r); len(ext) > 0 {
				if file, phys, ok := physAt(ext, prev-1); ok {
					s.cache.invalidate(blockKey{file, phys / bs})
				}
			}
		}
		s.prevCommitted[r] = now
	}
	return advanced, nil
}

// physAt maps a logical stream offset to its physical (file, offset)
// through the rank's committed extents.
func physAt(ext []sion.BlockExtent, logical int64) (int, int64, bool) {
	var base int64
	for _, e := range ext {
		if logical < base+e.Bytes {
			return e.File, e.Off + (logical - base), true
		}
		base += e.Bytes
	}
	return 0, 0, false
}

// Session is one client's tailing read session over a rank's logical
// stream. Read never returns bytes past the rank's committed watermark;
// at the watermark it returns (0, sion.ErrAgain) while the writer is live
// and (0, io.EOF) once the multifile has finalized and the stream is
// drained. Read and Follow share the cursor and belong to one goroutine;
// concurrent clients each open their own Session (Sessions of one Server
// share the cache and the miss path like Handles do).
type Session struct {
	s    *Server
	rank int
	pos  int64
}

// Tail starts a tailing session on the logical stream of writer rank
// `rank`. Like Open, it issues no backend request.
func (s *Server) Tail(rank int) (*Session, error) {
	if s.tail == nil {
		return nil, fmt.Errorf("serve: %s: not a tail server (built with New, not NewTail)", s.name)
	}
	if rank < 0 || rank >= s.tail.NTasks() {
		return nil, fmt.Errorf("serve: %s: rank %d outside 0..%d", s.name, rank, s.tail.NTasks()-1)
	}
	s.m.handles.Inc()
	return &Session{s: s, rank: rank}, nil
}

// Rank returns the writer rank this session reads.
func (c *Session) Rank() int { return c.rank }

// Committed returns the rank's committed logical size as of the last
// Poll.
func (c *Session) Committed() int64 {
	c.s.tailMu.Lock()
	defer c.s.tailMu.Unlock()
	return c.s.tail.CommittedSize(c.rank)
}

// Finalized reports whether the multifile is complete (as of the last
// Poll).
func (c *Session) Finalized() bool {
	c.s.tailMu.Lock()
	defer c.s.tailMu.Unlock()
	return c.s.tail.Finalized()
}

// Read copies committed bytes into p and advances the cursor. A short
// read means the session caught up with the watermark mid-buffer; see
// the Session doc for the frontier semantics.
func (c *Session) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s := c.s
	s.tailMu.Lock()
	ext, open := s.tail.RankCommitted(c.rank)
	finalized := s.tail.Finalized()
	s.tailMu.Unlock()

	n := 0
	var base int64
	for i, e := range ext {
		if n == len(p) {
			break
		}
		cur := c.pos + int64(n)
		if cur >= base && cur < base+e.Bytes {
			rel := cur - base
			want := e.Bytes - rel
			if m := int64(len(p) - n); want > m {
				want = m
			}
			// Within the open last extent, bytes at or past the last
			// complete cache block bypass the cache: the writer will
			// append to that block, so it must never be cached partially.
			uncachedFrom := e.Off + e.Bytes
			if open && i == len(ext)-1 {
				uncachedFrom = (e.Off + e.Bytes) / s.blockBytes * s.blockBytes
			}
			if err := s.readTailSpan(e.File, p[n:n+int(want)], e.Off+rel, uncachedFrom); err != nil {
				return n, err
			}
			n += int(want)
		}
		base += e.Bytes
	}
	c.pos += int64(n)
	if n == 0 {
		if finalized {
			return 0, io.EOF
		}
		return 0, sion.ErrAgain
	}
	s.m.readDone(0, 0, int64(n)) // unsampled, in shard 0's cell: a tail read spans extents
	return n, nil
}

// readTailSpan serves [off, off+len(p)) of physical file `file`, routing
// bytes below uncachedFrom through the block cache and bytes at or past
// it directly to the backend (uncached).
func (s *Server) readTailSpan(file int, p []byte, off, uncachedFrom int64) error {
	end := off + int64(len(p))
	if uncachedFrom > end {
		uncachedFrom = end
	}
	if uncachedFrom < off {
		uncachedFrom = off
	}
	if uncachedFrom > off {
		if err := s.readAt(file, p[:uncachedFrom-off], off, nil); err != nil {
			return err
		}
	}
	if uncachedFrom < end {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.closed.Load() {
			return fmt.Errorf("serve: %s: %w", s.name, ErrServerClosed)
		}
		// Frontier reads run under the same retry budget as cached span
		// reads (spanRead), so a transient fault at the watermark does not
		// surface to the tail session.
		buf := p[uncachedFrom-off:]
		if _, err := s.spanRead(file, [][]byte{buf}, uncachedFrom); err != nil {
			return fmt.Errorf("serve: frontier read: %w", err)
		}
	}
	return nil
}

// Follow reads like Read but, on hitting the watermark with the writer
// still live, calls wait and polls for new commits instead of returning
// ErrAgain. wait returning false (or a nil wait) stops the loop: Follow
// then returns (0, sion.ErrAgain). In simulations, wait advances virtual
// time (e.g. proc.AdvanceTo(now + pollInterval)); in real deployments it
// sleeps. Finalization still surfaces as (0, io.EOF) after the stream is
// drained.
func (c *Session) Follow(p []byte, wait func() bool) (int, error) {
	for {
		n, err := c.Read(p)
		if n == 0 && err == sion.ErrAgain {
			if wait == nil || !wait() {
				return 0, sion.ErrAgain
			}
			if _, perr := c.s.Poll(); perr != nil {
				return 0, perr
			}
			continue
		}
		return n, err
	}
}
