package serve

import "fmt"

// Live serving: over a multifile still being written (Options.Watermarks)
// New loads the first snapshot and Poll publishes each next one, which
// every Handle reads from its next call on: committed bytes only,
// sion.ErrAgain at the frontier while the writer is live, io.EOF once the
// multifile is final.
//
// A watermarked multifile, live or closed, is cached in FS blocks whatever
// cfg.BlockBytes says: chunks are FS-block aligned (paper §3.1), so no
// block holds one rank's committed bytes beside its neighbour's
// uncommitted ones. A fill's valid range is capped at the block's
// committed end in the current snapshot (Layout.StableEnd), and a read
// past an old cap is a partial miss that re-reserves the block, still
// capped. Committed bytes never change: readers on an older snapshot stay
// correct, and no block is invalidated.

// Poll re-reads the watermark sidecars, publishes the next snapshot, and
// reports whether any rank's committed size grew or the multifile became
// final. On a final snapshot there is nothing to poll: Poll returns
// (false, nil) and counts nothing. Safe for concurrent use with readers
// and other Polls.
func (s *Server) Poll() (bool, error) {
	s.pollMu.Lock()
	defer s.pollMu.Unlock()
	prev := s.snap.Load()
	switch {
	case prev.Final():
		return false, nil
	case s.closed.Load():
		return false, fmt.Errorf("serve: %s: %w", s.name, ErrServerClosed)
	}
	s.m.tailPolls.Inc()
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
