package serve

import (
	"fmt"

	sion "repro/internal/core"
	"repro/internal/fsio"
)

// Live serving: a Server over a multifile that is still being written
// (Options.Watermarks). A live multifile is a Layout that grows: NewTail
// loads its first snapshot, and Poll publishes each next one, which every
// Handle of the server reads from its next call on. Handles read committed
// bytes only: at the frontier they return sion.ErrAgain while the writer is
// live and io.EOF once the multifile is final.
//
// One cache rule covers live files. A cache block is one FS block: chunks
// are FS-block aligned (paper §3.1), so no block holds two ranks' bytes — a
// larger one could hold one rank's committed bytes beside its neighbour's
// uncommitted ones. A fill's valid range is capped at the block's committed
// end in the current snapshot (Layout.StableEnd), so the frontier block is
// cached up to the watermark, and a read past an old cap is a partial miss
// that re-reserves the block, still capped. Committed bytes never change:
// readers on an older snapshot stay correct, and no block is invalidated.

// NewTail opens a live multifile for serving. The multifile must have been
// created with Options.Watermarks (a closed one is accepted and served as
// final); while the writer is still creating files the open fails with a
// not-exist error and the caller retries. The cache block is the
// multifile's FS block (see above); cfg.BlockBytes is ignored.
func NewTail(fsys fsio.FileSystem, name string, cfg *Config) (*Server, error) {
	t, err := sion.LoadTailLayout(fsys, name)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var c Config
	if cfg != nil {
		c = *cfg
	}
	c.BlockBytes = t.Layout().FSBlockSize()
	s, err := newServer(fsys, t.Layout(), &c)
	if err != nil {
		t.Close()
		return nil, err
	}
	s.tail = t
	return s, nil
}

// Poll re-reads the watermark sidecars, publishes the next snapshot, and
// reports whether any rank's committed size grew or the multifile became
// final. A server built with New has nothing to poll. Safe for concurrent
// use with readers and other Polls.
func (s *Server) Poll() (bool, error) {
	if s.tail == nil {
		return false, nil
	}
	s.pollMu.Lock()
	defer s.pollMu.Unlock()
	if s.closed.Load() {
		return false, fmt.Errorf("serve: %s: %w", s.name, ErrServerClosed)
	}
	s.m.tailPolls.Inc()
	prev := s.snap.Load()
	next, err := s.tail.Refresh()
	if err != nil {
		return false, err
	}
	s.snap.Store(next)
	advanced := next.Final() != prev.Final()
	for g := 0; g < next.NTasks() && !advanced; g++ {
		advanced = next.RankSize(g) > prev.RankSize(g)
	}
	return advanced, nil
}

// Follow reads like h.Read but, on hitting the watermark with the writer
// still live, calls wait and polls for new commits instead of returning
// ErrAgain. wait returning false (or a nil wait) stops the loop: Follow
// then returns (0, sion.ErrAgain). In simulations, wait advances virtual
// time (e.g. proc.AdvanceTo(now + pollInterval)); in real deployments it
// sleeps. A final multifile still ends in (0, io.EOF) once drained.
func (s *Server) Follow(h *Handle, p []byte, wait func() bool) (int, error) {
	for {
		n, err := h.Read(p)
		if n != 0 || err != sion.ErrAgain {
			return n, err
		}
		if wait == nil || !wait() {
			return 0, sion.ErrAgain
		}
		if _, err := s.Poll(); err != nil {
			return 0, err
		}
	}
}
