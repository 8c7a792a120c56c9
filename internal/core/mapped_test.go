package sion

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

// writeMultifile writes one multifile with n tasks and per-rank payload
// sizes, returning the sizes (payloads are rankPayload-deterministic).
func writeMultifile(t *testing.T, fsys fsio.FileSystem, name string, n, nfiles int, chunk, fsblk int64, m MapFunc, sizes []int) {
	t.Helper()
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, name, WriteMode, &Options{
			ChunkSize: chunk, FSBlockSize: fsblk, NFiles: nfiles, Mapping: m,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(rankPayload(c.Rank(), sizes[c.Rank()])); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
}

func TestBalancedMappingPartitions(t *testing.T) {
	cases := []struct{ nreaders, ntasks int }{
		{1, 1}, {1, 7}, {3, 7}, {7, 3}, {4, 4}, {5, 20}, {64, 1024}, {4096, 1024},
	}
	for _, tc := range cases {
		seen := make([]int, tc.ntasks)
		for r := 0; r < tc.nreaders; r++ {
			prev := -1
			for _, g := range BalancedMapping(r, tc.nreaders, tc.ntasks) {
				if g < 0 || g >= tc.ntasks {
					t.Fatalf("M=%d N=%d: reader %d owns out-of-range %d", tc.nreaders, tc.ntasks, r, g)
				}
				if g <= prev {
					t.Fatalf("M=%d N=%d: reader %d ranks not ascending", tc.nreaders, tc.ntasks, r)
				}
				prev = g
				seen[g]++
				// The balanced mapping must be the inverse of ContiguousMap.
				if want := ContiguousMap(g, tc.ntasks, tc.nreaders); want != r {
					t.Fatalf("M=%d N=%d: rank %d owned by reader %d, ContiguousMap says %d", tc.nreaders, tc.ntasks, g, r, want)
				}
			}
		}
		for g, c := range seen {
			if c != 1 {
				t.Fatalf("M=%d N=%d: rank %d owned %d times", tc.nreaders, tc.ntasks, g, c)
			}
		}
	}
	if BalancedMapping(-1, 4, 8) != nil || BalancedMapping(4, 4, 8) != nil || BalancedMapping(0, 0, 8) != nil {
		t.Fatal("invalid reader coordinates must own nothing")
	}
}

// verifyMappedRank checks one rank handle's full semantics against the
// expected payload: sequential read, EOF, Seek, and ReadLogicalAt.
func verifyMappedRank(t *testing.T, h *File, g int, payload []byte, rng *rand.Rand) {
	t.Helper()
	if got := h.LogicalSize(); got != int64(len(payload)) {
		t.Errorf("rank %d: LogicalSize %d, want %d", g, got, len(payload))
		return
	}
	got := make([]byte, len(payload))
	if len(got) > 0 {
		if _, err := io.ReadFull(h, got); err != nil {
			t.Errorf("rank %d: sequential read: %v", g, err)
			return
		}
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("rank %d: payload mismatch", g)
		return
	}
	if !h.EOF() {
		t.Errorf("rank %d: EOF not reached", g)
	}
	if len(payload) == 0 {
		return
	}
	// Random-access probes without moving the cursor.
	for p := 0; p < 3; p++ {
		off := rng.Intn(len(payload))
		ln := 1 + rng.Intn(len(payload)-off)
		probe := make([]byte, ln)
		if _, err := h.ReadLogicalAt(probe, int64(off)); err != nil && err != io.EOF {
			t.Errorf("rank %d: ReadLogicalAt(%d,%d): %v", g, off, ln, err)
		} else if !bytes.Equal(probe, payload[off:off+ln]) {
			t.Errorf("rank %d: ReadLogicalAt(%d,%d) mismatch", g, off, ln)
		}
	}
	// Seek back to the start of a random block and re-read its bytes.
	if err := h.Seek(0, 0); err != nil {
		t.Errorf("rank %d: Seek(0,0): %v", g, err)
		return
	}
	b := rng.Intn(h.Blocks())
	if err := h.Seek(b, 0); err != nil {
		t.Errorf("rank %d: Seek(%d,0): %v", g, b, err)
		return
	}
	var base int64
	for i := 0; i < b; i++ {
		if err := h.Seek(i, 0); err != nil {
			t.Fatalf("rank %d: Seek(%d,0): %v", g, i, err)
		}
		base += h.BytesAvailInChunk()
	}
	if err := h.Seek(b, 0); err != nil {
		t.Fatalf("rank %d: Seek(%d,0): %v", g, b, err)
	}
	if avail := h.BytesAvailInChunk(); avail > 0 {
		span := make([]byte, avail)
		if _, err := io.ReadFull(h, span); err != nil {
			t.Errorf("rank %d: post-Seek read: %v", g, err)
		} else if !bytes.Equal(span, payload[base:base+avail]) {
			t.Errorf("rank %d: post-Seek read mismatch in block %d", g, b)
		}
	}
}

// TestMappedReopenRescaled covers the core N→M scenarios: fewer readers
// than writers, more readers than writers, one reader, and equal counts,
// in direct and collective mode, with both task→file mappings.
func TestMappedReopenRescaled(t *testing.T) {
	const n = 12
	maps := []struct {
		name string
		fn   MapFunc
	}{{"contig", ContiguousMap}, {"rr", RoundRobinMap}}
	for _, m := range maps {
		for _, M := range []int{1, 4, 5, 12, 19} {
			for _, group := range []int{0, 3} {
				name := fmt.Sprintf("%s/M=%d/g=%d", m.name, M, group)
				t.Run(name, func(t *testing.T) {
					fsys := fsio.NewOS(t.TempDir())
					sizes := make([]int, n)
					for r := range sizes {
						sizes[r] = 150*r + r%3 // includes rank 0 writing nothing
					}
					writeMultifile(t, fsys, "re.sion", n, 3, 256, 128, m.fn, sizes)
					covered := make([]bool, n)
					mpi.Run(M, func(c *mpi.Comm) {
						var opts *Options
						if group != 0 {
							opts = &Options{CollectorGroup: group}
						}
						mf, err := ParOpenMapped(c, fsys, "re.sion", ReadMode, nil, opts)
						if err != nil {
							t.Error(err)
							return
						}
						defer mf.Close()
						if mf.NTasks() != n {
							t.Errorf("NTasks = %d, want %d", mf.NTasks(), n)
						}
						rng := rand.New(rand.NewSource(int64(31*M + c.Rank())))
						for _, g := range mf.OwnedRanks() {
							h, err := mf.Rank(g)
							if err != nil {
								t.Error(err)
								continue
							}
							verifyMappedRank(t, h, g, rankPayload(g, sizes[g]), rng)
							covered[g] = true // disjoint ownership: no race
						}
						// An unowned rank must be rejected, not misread.
						if len(mf.OwnedRanks()) < n {
							for g := 0; g < n; g++ {
								if ContiguousMap(g, n, M) != c.Rank() {
									if _, err := mf.Rank(g); err == nil {
										t.Errorf("reader %d got handle for unowned rank %d", c.Rank(), g)
									}
									break
								}
							}
						}
					})
					for g, ok := range covered {
						if !ok {
							t.Errorf("rank %d not recovered by any reader", g)
						}
					}
				})
			}
		}
	}
}

// TestMappedExplicitOwnership passes explicit (non-contiguous) owned sets:
// reader r takes every rank ≡ r (mod M), the round-robin inverse.
func TestMappedExplicitOwnership(t *testing.T) {
	const n, M = 10, 3
	fsys := fsio.NewOS(t.TempDir())
	sizes := make([]int, n)
	for r := range sizes {
		sizes[r] = 100 + 70*r
	}
	writeMultifile(t, fsys, "ex.sion", n, 2, 200, 128, ContiguousMap, sizes)
	mpi.Run(M, func(c *mpi.Comm) {
		var owned []int
		for g := c.Rank(); g < n; g += M {
			owned = append(owned, g)
		}
		mf, err := ParOpenMapped(c, fsys, "ex.sion", ReadMode, owned, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer mf.Close()
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		for _, g := range owned {
			h, err := mf.Rank(g)
			if err != nil {
				t.Error(err)
				continue
			}
			verifyMappedRank(t, h, g, rankPayload(g, sizes[g]), rng)
		}
	})
}

// TestMappedOwnershipErrors pins the collective failure modes: a rank
// claimed twice, a rank outside 0..N-1, and write mode are all rejected on
// every reader without deadlock.
func TestMappedOwnershipErrors(t *testing.T) {
	const n, M = 4, 2
	fsys := fsio.NewOS(t.TempDir())
	sizes := []int{10, 20, 30, 40}
	writeMultifile(t, fsys, "err.sion", n, 1, 64, 64, ContiguousMap, sizes)

	cases := []struct {
		name  string
		owned func(rank int) []int
	}{
		{"duplicate", func(rank int) []int { return []int{0, 1} }}, // both readers claim 0 and 1
		{"out-of-range", func(rank int) []int {
			if rank == 0 {
				return []int{0, n} // n is outside 0..n-1
			}
			return []int{1}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mpi.Run(M, func(c *mpi.Comm) {
				mf, err := ParOpenMapped(c, fsys, "err.sion", ReadMode, tc.owned(c.Rank()), nil)
				if err == nil {
					mf.Close()
					t.Errorf("reader %d: invalid ownership accepted", c.Rank())
				}
			})
		})
	}
	mpi.Run(M, func(c *mpi.Comm) {
		if _, err := ParOpenMapped(c, fsys, "err.sion", WriteMode, nil, nil); err == nil {
			t.Error("mapped write accepted")
		}
	})
	mpi.Run(M, func(c *mpi.Comm) {
		if _, err := ParOpenMapped(c, fsys, "missing.sion", ReadMode, nil, nil); err == nil {
			t.Error("missing multifile accepted")
		}
	})
}

// TestMappedCollectiveClientReduction proves the ⌈M/G⌉ claim on the
// simulated file system: with a collector group only the collectors (plus
// the metadata parsers) ever issue read requests.
func TestMappedCollectiveClientReduction(t *testing.T) {
	const n, M, group = 16, 8, 4
	fs := simfs.New(simfs.Jugene())
	sizes := make([]int, n)
	for r := range sizes {
		sizes[r] = 5000 + 100*r
	}
	e := vtime.NewEngine()
	mpi.RunSim(e, n, mpi.DefaultCost, func(c *mpi.Comm) {
		f, err := ParOpen(c, fs.View(c.Rank(), c.Proc()), "cl.sion", WriteMode, &Options{ChunkSize: 4096})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), sizes[c.Rank()]))
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	before, _ := fs.Stats("cl.sion")

	e2 := vtime.NewEngine()
	mpi.RunSim(e2, M, mpi.DefaultCost, func(c *mpi.Comm) {
		mf, err := ParOpenMapped(c, fs.View(c.Rank(), c.Proc()), "cl.sion", ReadMode, nil, &Options{CollectorGroup: group})
		if err != nil {
			t.Error(err)
			return
		}
		defer mf.Close()
		if g, _ := mf.Collective(); g != group {
			t.Errorf("collective group = %d, want %d", g, group)
		}
		for _, g := range mf.OwnedRanks() {
			h, _ := mf.Rank(g)
			buf := make([]byte, sizes[g])
			if _, err := io.ReadFull(h, buf); err != nil {
				t.Errorf("rank %d: %v", g, err)
			} else if !bytes.Equal(buf, rankPayload(g, sizes[g])) {
				t.Errorf("rank %d: mismatch", g)
			}
		}
	})
	after, _ := fs.Stats("cl.sion")
	collectors := (M + group - 1) / group
	// Readers of the file: the collectors, plus rank 0 (file 0's header)
	// and the metadata parser of file 0.
	if got := after.ReaderTasks - before.ReaderTasks; got > collectors+2 {
		t.Errorf("%d reader tasks beyond the write phase, want ≤ %d collectors + 2 metadata readers",
			got, collectors)
	}
}

// TestMappedSparseOwnershipSplitsSpans: a collective group owning only
// the first and last writer rank must not fetch (and buffer) the whole
// stride between them — the span is split at gaps above maxSpanGap, at
// the cost of one extra read, while the recovered bytes stay exact.
func TestMappedSparseOwnershipSplitsSpans(t *testing.T) {
	const n = 8
	chunk := int64(1) << 20 // gap between first and last rank ≫ maxSpanGap
	fs := simfs.New(simfs.Jugene())
	size := int(chunk) / 2
	e := vtime.NewEngine()
	mpi.RunSim(e, n, mpi.DefaultCost, func(c *mpi.Comm) {
		f, err := ParOpen(c, fs.View(c.Rank(), c.Proc()), "sparse.sion", WriteMode, &Options{ChunkSize: chunk})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), size))
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	before, _ := fs.Stats("sparse.sion")

	e2 := vtime.NewEngine()
	mpi.RunSim(e2, 2, mpi.DefaultCost, func(c *mpi.Comm) {
		owned := []int{0} // group of both readers owns only the extremes
		if c.Rank() == 1 {
			owned = []int{n - 1}
		}
		mf, err := ParOpenMapped(c, fs.View(c.Rank(), c.Proc()), "sparse.sion", ReadMode, owned, &Options{CollectorGroup: 2})
		if err != nil {
			t.Error(err)
			return
		}
		defer mf.Close()
		g := owned[0]
		h, _ := mf.Rank(g)
		got := make([]byte, size)
		if _, err := io.ReadFull(h, got); err != nil {
			t.Errorf("rank %d: %v", g, err)
		} else if !bytes.Equal(got, rankPayload(g, size)) {
			t.Errorf("rank %d: mismatch", g)
		}
	})
	after, _ := fs.Stats("sparse.sion")
	// One block, two distant regions: 2 data reads (split at the gap)
	// plus ≤ 6 metadata reads — far below the bytes of one full span.
	if got := after.ReadRequests - before.ReadRequests; got < 2 || got > 8 {
		t.Errorf("sparse collective reopen issued %d reads, want 2 split data reads + metadata", got)
	}
}

// TestMappedConcurrentRankReads pins the documented concurrency contract
// under -race: distinct rank handles of one MappedFile may be used
// concurrently (each has its own cursor, stage, and — in collective mode —
// prefetched stream; the shared physical file is only touched through
// offset reads). A single handle remains single-goroutine, like any *File.
func TestMappedConcurrentRankReads(t *testing.T) {
	const n, M = 12, 3
	for _, group := range []int{0, 2} {
		t.Run(fmt.Sprintf("group=%d", group), func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			sizes := make([]int, n)
			for r := range sizes {
				sizes[r] = 4000 + 321*r
			}
			writeMultifile(t, fsys, "conc.sion", n, 2, 512, 256, ContiguousMap, sizes)
			mpi.Run(M, func(c *mpi.Comm) {
				opts := &Options{BufferSize: BufferAuto}
				if group != 0 {
					opts = &Options{CollectorGroup: group}
				}
				mf, err := ParOpenMapped(c, fsys, "conc.sion", ReadMode, nil, opts)
				if err != nil {
					t.Error(err)
					return
				}
				defer mf.Close()
				var wg sync.WaitGroup
				for _, g := range mf.OwnedRanks() {
					h, err := mf.Rank(g)
					if err != nil {
						t.Error(err)
						continue
					}
					wg.Add(1)
					go func(g int, h *File) {
						defer wg.Done()
						payload := rankPayload(g, sizes[g])
						rng := rand.New(rand.NewSource(int64(g)))
						for iter := 0; iter < 4; iter++ {
							if err := h.Seek(0, 0); err != nil {
								t.Errorf("rank %d: %v", g, err)
								return
							}
							got := make([]byte, len(payload))
							if _, err := io.ReadFull(h, got); err != nil {
								t.Errorf("rank %d: %v", g, err)
								return
							}
							if !bytes.Equal(got, payload) {
								t.Errorf("rank %d: concurrent read mismatch", g)
								return
							}
							off := rng.Intn(len(payload))
							probe := make([]byte, len(payload)-off)
							if _, err := h.ReadLogicalAt(probe, int64(off)); err != nil && err != io.EOF {
								t.Errorf("rank %d: %v", g, err)
							}
						}
					}(g, h)
				}
				wg.Wait()
			})
		})
	}
}

// TestMappedRankHandleCloseLeavesSiblings: closing one rank handle must
// not tear down the shared physical file other handles still read.
func TestMappedRankHandleCloseLeavesSiblings(t *testing.T) {
	const n = 6
	fsys := fsio.NewOS(t.TempDir())
	sizes := make([]int, n)
	for r := range sizes {
		sizes[r] = 500
	}
	writeMultifile(t, fsys, "sib.sion", n, 1, 256, 128, ContiguousMap, sizes)
	mpi.Run(1, func(c *mpi.Comm) {
		mf, err := ParOpenMapped(c, fsys, "sib.sion", ReadMode, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer mf.Close()
		h0, _ := mf.Rank(0)
		if err := h0.Close(); err != nil {
			t.Error(err)
		}
		if _, err := h0.Read(make([]byte, 8)); err == nil {
			t.Error("read on closed rank handle accepted")
		}
		h1, err := mf.Rank(1)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, sizes[1])
		if _, err := io.ReadFull(h1, got); err != nil {
			t.Errorf("sibling read after one handle closed: %v", err)
		} else if !bytes.Equal(got, rankPayload(1, sizes[1])) {
			t.Error("sibling data mismatch after one handle closed")
		}
	})
}

// TestMappedKeyValRead: KeyReader works on a mapped rank handle — the
// restart-tool path of reading another task's keyed streams.
func TestMappedKeyValRead(t *testing.T) {
	const n = 4
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "kv.sion", WriteMode, &Options{ChunkSize: 512, FSBlockSize: 256})
		if err != nil {
			t.Error(err)
			return
		}
		w, _ := NewKeyWriter(f)
		for rec := 0; rec < 5; rec++ {
			if err := w.WriteKey(uint64(c.Rank()), rankPayload(100*c.Rank()+rec, 60)); err != nil {
				t.Error(err)
			}
		}
		f.Close()
	})
	mpi.Run(2, func(c *mpi.Comm) {
		mf, err := ParOpenMapped(c, fsys, "kv.sion", ReadMode, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer mf.Close()
		for _, g := range mf.OwnedRanks() {
			h, _ := mf.Rank(g)
			kr, err := NewKeyReader(h)
			if err != nil {
				t.Errorf("rank %d: %v", g, err)
				continue
			}
			if got := kr.NumRecords(uint64(g)); got != 5 {
				t.Errorf("rank %d: %d records, want 5", g, got)
				continue
			}
			rec, err := kr.Record(uint64(g), 3)
			if err != nil {
				t.Errorf("rank %d: %v", g, err)
			} else if !bytes.Equal(rec, rankPayload(100*g+3, 60)) {
				t.Errorf("rank %d: keyed record mismatch", g)
			}
		}
	})
}
