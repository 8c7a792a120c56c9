package sion

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/resil"
	"repro/internal/simfs"
)

// bufSizeChoices are the staging-buffer classes the property test draws
// from: unbuffered, a tiny odd size (forces sub-block flushes), the
// auto-tuned size, and one far larger than any chunk.
func bufSizeChoices(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return int64(1 + rng.Intn(48)) // tiny
	case 2:
		return BufferAuto
	default:
		return 1 << 20 // huge
	}
}

// recordSizes are the record-size classes the read arms sweep on a handle:
// either side of the direct-read bar, one byte, and one chunk and a byte
// more, whose records straddle every chunk boundary.
func recordSizes(direct, capacity int64) []int {
	d, c := int(direct), int(capacity)
	return []int{d - 1, d, d + 1, 1, c, c + 1}
}

// checkRecordReads reads a rank's whole stream through rd once per record
// size class, one io.ReadFull per record — so that, whatever stage h
// carries, some records are served from it, some fill it, and some go
// past it — and after each pass seeks back into what the pass read and
// reads one more record there. h is the rank's handle (rd and seek drive
// it, directly or through a serial cursor). It returns the last pass.
func checkRecordReads(t *testing.T, label string, rd io.Reader, seek func(block int, pos int64) error, h *File, payload []byte, prng *rand.Rand) []byte {
	t.Helper()
	got := make([]byte, len(payload))
	for _, rec := range recordSizes(h.directRead, h.ChunkCapacity()) {
		if len(payload) == 0 {
			break
		}
		if err := seek(0, 0); err != nil {
			t.Errorf("%s: Seek(0,0): %v", label, err)
			return got
		}
		clear(got)
		for off := 0; off < len(got); off += rec {
			if _, err := io.ReadFull(rd, got[off:min(off+rec, len(got))]); err != nil {
				t.Errorf("%s: rec=%d at %d: %v", label, rec, off, err)
				return got
			}
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%s: rec=%d: stream differs", label, rec)
		}
		loff := prng.Intn(len(payload))
		block, pos := 0, int64(loff)
		for pos >= h.readBytes[block] {
			pos -= h.readBytes[block]
			block++
		}
		if err := seek(block, pos); err != nil {
			t.Errorf("%s: Seek(%d,%d): %v", label, block, pos, err)
			return got
		}
		again := make([]byte, min(rec, len(payload)-loff))
		if _, err := io.ReadFull(rd, again); err != nil {
			t.Errorf("%s: rec=%d after Seek to %d: %v", label, rec, loff, err)
		} else if !bytes.Equal(again, payload[loff:loff+len(again)]) {
			t.Errorf("%s: rec=%d after Seek to %d: bytes differ", label, rec, loff)
		}
	}
	return got
}

// TestMixedStreamRoundTrip reads back, byte for byte, streams whose
// records straddle the read-ahead rule's stream bar: 16 records of 64 B
// (staged) and then serve-cold's 1–64 KiB records (read directly once the
// stream's mean reaches half of DirectReadBytes), on 4 KiB FS blocks and
// 256 KiB chunks. The arms are Read on ParOpen handles, ReadLogicalAt in
// shuffled record order, Read on mapped rank handles (two readers for
// four writers), and a KeyReader over values of 32 KiB and more.
func TestMixedStreamRoundTrip(t *testing.T) {
	const ranks, fsblk, small = 4, 4096, 64
	sh := readBackShape{"", 1 << 20, 256 << 10, 1 << 10, 64 << 10}
	ends := func(g int) []int64 {
		var e []int64
		for pos := int64(small); pos <= 16*small; pos += small {
			e = append(e, pos)
		}
		for _, end := range sh.records(g) {
			if end > fsblk {
				e = append(e, end)
			}
		}
		return e
	}
	// Key g's values: 32 KiB and more, cut from rank g's payload.
	values := func(g int) [][]byte {
		var vs [][]byte
		payload := rankPayload(g, int(sh.perTask))
		for i := 0; len(payload) > 0; i++ {
			n := min(32<<10+(i%4)*(24<<10), len(payload))
			vs, payload = append(vs, payload[:n]), payload[n:]
		}
		return vs
	}
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(ranks, func(c *mpi.Comm) {
		opts := &Options{ChunkSize: sh.chunk, FSBlockSize: fsblk, BufferSize: BufferAuto}
		f, err := ParOpen(c, fsys, "mixed.sion", WriteMode, opts)
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), int(sh.perTask)))
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		if f, err = ParOpen(c, fsys, "keys.sion", WriteMode, opts); err != nil {
			t.Error(err)
			return
		}
		w, _ := NewKeyWriter(f)
		for i, v := range values(c.Rank()) {
			if err := w.WriteKey(uint64(i%3), v); err != nil {
				t.Error(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	// drain reads rank g's stream through h one record at a time.
	drain := func(label string, h *File, g int) {
		want, got := rankPayload(g, int(sh.perTask)), make([]byte, sh.perTask)
		pos := int64(0)
		for _, end := range ends(g) {
			if _, err := io.ReadFull(h, got[pos:end]); err != nil {
				t.Errorf("%s rank %d at %d: %v", label, g, pos, err)
				return
			}
			pos = end
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s rank %d: bytes differ", label, g)
		}
	}
	ropts := &Options{BufferSize: BufferAuto}
	mpi.Run(ranks, func(c *mpi.Comm) {
		g := c.Rank()
		f, err := ParOpen(c, fsys, "mixed.sion", ReadMode, ropts)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		drain("Read", f, g)

		e, want, got := ends(g), rankPayload(g, int(sh.perTask)), make([]byte, sh.perTask)
		for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(e)) {
			start := int64(0)
			if i > 0 {
				start = e[i-1]
			}
			if _, err := f.ReadLogicalAt(got[start:e[i]], start); err != nil {
				t.Errorf("ReadLogicalAt rank %d at %d: %v", g, start, err)
				return
			}
		}
		if !bytes.Equal(got, want) {
			t.Errorf("ReadLogicalAt rank %d: bytes differ", g)
		}

		k, err := ParOpen(c, fsys, "keys.sion", ReadMode, ropts)
		if err != nil {
			t.Error(err)
			return
		}
		defer k.Close()
		kr, err := NewKeyReader(k)
		if err != nil {
			t.Error(err)
			return
		}
		wantKey := make([][]byte, 3)
		for i, v := range values(g) {
			wantKey[i%3] = append(wantKey[i%3], v...)
		}
		for key, want := range wantKey {
			if got, err := kr.ReadKey(uint64(key)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("KeyReader rank %d: key %d differs (%v)", g, key, err)
			}
		}
	})
	mpi.Run(2, func(c *mpi.Comm) {
		mf, err := ParOpenMapped(c, fsys, "mixed.sion", ReadMode, nil, ropts)
		if err != nil {
			t.Error(err)
			return
		}
		defer mf.Close()
		for _, g := range mf.OwnedRanks() {
			h, err := mf.Rank(g)
			if err != nil {
				t.Error(err)
				return
			}
			drain("mapped", h, g)
		}
	})
}

// TestPropertyRoundTripModes is a property-style test over random
// configurations: for random task counts, physical-file counts, chunk
// sizes, mappings, and staging-buffer sizes, the direct,
// buffered-direct, synchronous-collective, and async-collective write
// paths must produce byte-identical multifiles (with Flush interleaved
// into the buffered writes), and direct, buffered (with Seek
// interleaving), and collective reads must return exactly the written
// payloads (sequentially and via ReadLogicalAt). A final mapped-reopen
// phase rescales the reader side: a random M ≠ N (including M = 1 and
// M > N) reopens the multifile through ParOpenMapped — balanced or with a
// random explicit partition, direct or collective, with random read
// buffering — and every writer rank's bytes must be recovered exactly
// once across the M readers, Seek interleaving included.
func TestPropertyRoundTripModes(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	maps := []struct {
		name string
		fn   MapFunc
	}{
		{"contig", ContiguousMap},
		{"rr", roundRobinMap},
	}
	for iter := 0; iter < 12; iter++ {
		n := 2 + rng.Intn(9)      // 2..10 tasks
		nfiles := 1 + rng.Intn(3) // 1..3 physical files
		if nfiles > n {
			nfiles = n
		}
		chunk := int64(48 + rng.Intn(500))
		fsblk := int64(64 << rng.Intn(3)) // 64, 128, 256
		group := 2 + rng.Intn(n)          // may exceed a file's task count
		if rng.Intn(4) == 0 {
			group = CollectorAuto
		}
		// q > 0: async writers Flush every q bytes, so frames far smaller
		// than the flush unit (half a chunk) reach the collectors.
		flush := int64(0)
		if rng.Intn(2) == 0 {
			flush = int64(32 + rng.Intn(256))
		}
		bufSize := bufSizeChoices(rng)
		readBuf := bufSizeChoices(rng)
		m := maps[rng.Intn(len(maps))]

		// Per-rank payload sizes: empty, sub-chunk, multi-chunk, and
		// exact multiples of the capacity all occur.
		capacity := alignUp(chunk, fsblk)
		sizes := make([]int, n)
		for r := range sizes {
			switch rng.Intn(5) {
			case 0:
				sizes[r] = 0
			case 1:
				sizes[r] = int(capacity) * (1 + rng.Intn(3)) // exact multiple
			default:
				sizes[r] = rng.Intn(3 * int(capacity))
			}
		}

		name := fmt.Sprintf("iter%d n=%d files=%d chunk=%d fsblk=%d g=%d q=%d buf=%d rbuf=%d map=%s",
			iter, n, nfiles, chunk, fsblk, group, flush, bufSize, readBuf, m.name)
		t.Run(name, func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			write := func(file string, g int, async bool, buf int64) {
				mpi.Run(n, func(c *mpi.Comm) {
					f, err := ParOpen(c, fsys, file, WriteMode, &Options{
						ChunkSize: chunk, FSBlockSize: fsblk, NFiles: nfiles,
						Mapping: m.fn, CollectorGroup: g,
						AsyncCollective: async, BufferSize: buf,
					})
					if err != nil {
						t.Error(err)
						return
					}
					payload := rankPayload(c.Rank(), sizes[c.Rank()])
					// Write in randomly sized pieces (deterministic per rank),
					// with Flush interleaved so partial staging buffers hit
					// the file mid-stream.
					prng := rand.New(rand.NewSource(int64(1000*iter + c.Rank())))
					every := async && flush > 0
					for off := 0; off < len(payload); {
						end := off + 1 + prng.Intn(2*int(chunk))
						if every && end > off+int(flush) {
							end = off + int(flush)
						}
						if end > len(payload) {
							end = len(payload)
						}
						if _, err := f.Write(payload[off:end]); err != nil {
							t.Error(err)
							return
						}
						if prng.Intn(3) == 0 || every {
							if err := f.Flush(); err != nil {
								t.Error(err)
								return
							}
						}
						off = end
					}
					if err := f.Close(); err != nil {
						t.Error(err)
					}
				})
			}
			write("direct.sion", 0, false, 0)
			write("buffered.sion", 0, false, bufSize)
			write("coll.sion", group, false, 0)
			write("async.sion", group, true, 0)
			for k := 0; k < nfiles; k++ {
				a := fileName("direct.sion", k)
				mustEqualFiles(t, fsys, a, fileName("buffered.sion", k))
				mustEqualFiles(t, fsys, a, fileName("coll.sion", k))
				mustEqualFiles(t, fsys, a, fileName("async.sion", k))
			}
			if err := Verify(fsys, "async.sion"); err != nil {
				t.Fatal(err)
			}

			// Read everything back: direct, buffered (read-ahead), and
			// collective; and the three stage sizes the direct-read rule is
			// swept against — one FS block, one chunk, two chunks.
			stages := []int64{fsblk, BufferAuto, 2 * capacity}
			modes := []struct {
				rg  int
				buf int64
			}{{0, 0}, {0, readBuf}, {group, 0}, {0, stages[0]}, {0, stages[1]}, {0, stages[2]}}
			for _, mode := range modes {
				rg, rbuf := mode.rg, mode.buf
				mpi.Run(n, func(c *mpi.Comm) {
					var ropts *Options
					if rg != 0 {
						ropts = &Options{CollectorGroup: rg}
					} else if rbuf != 0 {
						ropts = &Options{BufferSize: rbuf}
					}
					r, err := ParOpen(c, fsys, "async.sion", ReadMode, ropts)
					if err != nil {
						t.Error(err)
						return
					}
					defer r.Close()
					payload := rankPayload(c.Rank(), sizes[c.Rank()])
					if got := r.LogicalSize(); got != int64(len(payload)) {
						t.Errorf("rank %d: LogicalSize %d, want %d", c.Rank(), got, len(payload))
					}
					got := make([]byte, len(payload))
					if len(got) > 0 {
						if _, err := io.ReadFull(r, got); err != nil {
							t.Errorf("rank %d: sequential read: %v", c.Rank(), err)
						}
					}
					if !bytes.Equal(got, payload) {
						t.Errorf("rank %d: payload mismatch (group %d)", c.Rank(), rg)
					}
					prng := rand.New(rand.NewSource(int64(7000*iter + c.Rank())))
					// The same stream record by record, every size class.
					checkRecordReads(t, fmt.Sprintf("rank %d (group %d buf %d)", c.Rank(), rg, rbuf), r, r.Seek, r, payload, prng)
					// Random-access probes.
					for p := 0; p < 4 && len(payload) > 0; p++ {
						off := prng.Intn(len(payload))
						ln := 1 + prng.Intn(len(payload)-off)
						probe := make([]byte, ln)
						if _, err := r.ReadLogicalAt(probe, int64(off)); err != nil && err != io.EOF {
							t.Errorf("rank %d: ReadLogicalAt(%d,%d): %v", c.Rank(), off, ln, err)
						} else if !bytes.Equal(probe, payload[off:off+ln]) {
							t.Errorf("rank %d: ReadLogicalAt(%d,%d) mismatch", c.Rank(), off, ln)
						}
					}
					// Seek interleaving: hop the cursor to random recorded
					// positions and re-read sequentially from there; the
					// read-ahead cache must stay coherent across hops. (The
					// same hops run below on the mapped rank handles.)
					for p := 0; p < 3 && len(payload) > 0; p++ {
						loff := prng.Intn(len(payload))
						block, pos, rest := 0, int64(loff), int64(0)
						for b := 0; b < len(r.readBytes); b++ {
							if err := r.Seek(b, 0); err != nil {
								t.Errorf("rank %d: Seek(%d,0): %v", c.Rank(), b, err)
								return
							}
							if avail := r.BytesAvailInChunk(); pos < avail {
								block, rest = b, avail-pos
								break
							} else {
								pos -= avail
							}
						}
						if err := r.Seek(block, pos); err != nil {
							t.Errorf("rank %d: Seek(%d,%d): %v", c.Rank(), block, pos, err)
							return
						}
						ln := 1 + prng.Intn(int(rest))
						span := make([]byte, ln)
						if _, err := io.ReadFull(r, span); err != nil {
							t.Errorf("rank %d: post-Seek read: %v", c.Rank(), err)
						} else if !bytes.Equal(span, payload[loff:loff+ln]) {
							t.Errorf("rank %d: post-Seek read mismatch at %d+%d", c.Rank(), loff, ln)
						}
					}
				})
			}

			// Mapped reopen with a rescaled reader count M ≠ N.
			mOpts := []int{1, n / 2, n - 1, n, n + 1, 2*n + 3}
			M := mOpts[rng.Intn(len(mOpts))]
			if M < 1 {
				M = 1
			}
			explicit := rng.Intn(2) == 0
			var pieces [][]int
			if explicit {
				// Random partition: every rank assigned to a random reader
				// (non-contiguous sets, empty sets allowed).
				pieces = make([][]int, M)
				for _, g := range rng.Perm(n) {
					r := rng.Intn(M)
					pieces[r] = append(pieces[r], g)
				}
			}
			mGroup := 0
			if rng.Intn(2) == 0 {
				mGroup = 2 + rng.Intn(4)
			}
			mBuf := bufSizeChoices(rng)
			// One pass as drawn, then one per stage size on direct handles.
			for pass, mb := range append([]int64{mBuf}, stages...) {
				mg := mGroup
				if pass > 0 {
					mg = 0
				}
				recovered := make([][]byte, n) // disjoint ownership: one writer per slot
				ownerOf := make([]int, n)
				for g := range ownerOf {
					ownerOf[g] = -1
				}
				mpi.Run(M, func(c *mpi.Comm) {
					var ropts *Options
					if mg != 0 {
						ropts = &Options{CollectorGroup: mg}
					} else if mb != 0 {
						ropts = &Options{BufferSize: mb}
					}
					owned := []int(nil)
					if explicit {
						owned = pieces[c.Rank()]
						if owned == nil {
							owned = []int{}
						}
					}
					mf, err := ParOpenMapped(c, fsys, "async.sion", ReadMode, owned, ropts)
					if err != nil {
						t.Errorf("reader %d/%d: %v", c.Rank(), M, err)
						return
					}
					defer mf.Close()
					if mf.ntasks != n {
						t.Errorf("mapped NTasks = %d, want %d", mf.ntasks, n)
					}
					prng := rand.New(rand.NewSource(int64(9000*iter + c.Rank())))
					for _, g := range mf.OwnedRanks() {
						h, err := mf.Rank(g)
						if err != nil {
							t.Error(err)
							continue
						}
						payload := rankPayload(g, sizes[g])
						got := make([]byte, len(payload))
						if len(got) > 0 {
							if _, err := io.ReadFull(h, got); err != nil {
								t.Errorf("reader %d rank %d: %v", c.Rank(), g, err)
								continue
							}
						}
						recovered[g] = got
						ownerOf[g] = c.Rank()
						if !h.EOF() {
							t.Errorf("reader %d rank %d: EOF not reached", c.Rank(), g)
						}
						checkRecordReads(t, fmt.Sprintf("reader %d rank %d (group %d buf %d)", c.Rank(), g, mg, mb), h, h.Seek, h, payload, prng)
						// Seek interleaving on the mapped handle.
						for p := 0; p < 2 && len(payload) > 0; p++ {
							loff := prng.Intn(len(payload))
							block, pos, rest := 0, int64(loff), int64(0)
							for b := 0; b < len(h.readBytes); b++ {
								if err := h.Seek(b, 0); err != nil {
									t.Errorf("reader %d rank %d: Seek(%d,0): %v", c.Rank(), g, b, err)
									return
								}
								if avail := h.BytesAvailInChunk(); pos < avail {
									block, rest = b, avail-pos
									break
								} else {
									pos -= avail
								}
							}
							if err := h.Seek(block, pos); err != nil {
								t.Errorf("reader %d rank %d: Seek(%d,%d): %v", c.Rank(), g, block, pos, err)
								return
							}
							ln := 1 + prng.Intn(int(rest))
							span := make([]byte, ln)
							if _, err := io.ReadFull(h, span); err != nil {
								t.Errorf("reader %d rank %d: post-Seek read: %v", c.Rank(), g, err)
							} else if !bytes.Equal(span, payload[loff:loff+ln]) {
								t.Errorf("reader %d rank %d: post-Seek mismatch at %d+%d", c.Rank(), g, loff, ln)
							}
						}
					}
				})
				for g := 0; g < n; g++ {
					if ownerOf[g] < 0 {
						t.Errorf("mapped reopen (M=%d explicit=%v): rank %d recovered by no reader", M, explicit, g)
						continue
					}
					if !bytes.Equal(recovered[g], rankPayload(g, sizes[g])) {
						t.Errorf("mapped reopen (M=%d explicit=%v): rank %d bytes differ", M, explicit, g)
					}
				}
			}

			// The serial global view (the M=1 cursor over the same rank
			// handles) and the key-value reader, per stage size.
			direct := DirectReadBytes(fsio.Capabilities{}, fsblk)
			keyRecs := func(g int) [][]byte { // rank g's payload cut into the size classes, in turn
				var recs [][]byte
				payload, classes := rankPayload(g, sizes[g]), recordSizes(direct, capacity)
				for i := 0; len(payload) > 0; i++ {
					m := min(classes[i%len(classes)], len(payload))
					recs, payload = append(recs, payload[:m]), payload[m:]
				}
				return recs
			}
			mpi.Run(n, func(c *mpi.Comm) {
				f, err := ParOpen(c, fsys, "keys.sion", WriteMode, &Options{
					ChunkSize: chunk, FSBlockSize: fsblk, NFiles: nfiles, Mapping: m.fn, BufferSize: bufSize,
				})
				if err != nil {
					t.Error(err)
					return
				}
				w, _ := NewKeyWriter(f)
				for i, rec := range keyRecs(c.Rank()) {
					if err := w.WriteKey(uint64(i%3), rec); err != nil {
						t.Error(err)
					}
				}
				if err := f.Close(); err != nil {
					t.Error(err)
				}
			})
			prng := rand.New(rand.NewSource(int64(11000 * iter)))
			for _, sb := range stages {
				sf, err := Open(fsys, "async.sion")
				if err != nil {
					t.Fatal(err)
				}
				if err := stageAll(sf, sb); err != nil {
					t.Fatal(err)
				}
				for g := 0; g < n; g++ {
					g := g
					seek := func(block int, pos int64) error { return sf.Seek(g, block, pos) }
					checkRecordReads(t, fmt.Sprintf("serial rank %d (buf %d)", g, sb), sf, seek, sf.handles[g], rankPayload(g, sizes[g]), prng)
				}
				sf.Close()

				for g := 0; g < n; g++ {
					h, err := OpenRank(fsys, "keys.sion", g)
					if err != nil {
						t.Fatal(err)
					}
					if sb != BufferAuto { // NewKeyReader arms BufferAuto on its own
						if err := h.SetBufferSize(sb); err != nil {
							t.Fatal(err)
						}
					}
					kr, err := NewKeyReader(h)
					if err != nil {
						t.Fatalf("key reader rank %d (buf %d): %v", g, sb, err)
					}
					want := make([][]byte, 3)
					for i, rec := range keyRecs(g) {
						want[i%3] = append(want[i%3], rec...)
					}
					for k := range want {
						if got, err := kr.ReadKey(uint64(k)); err != nil || !bytes.Equal(got, want[k]) {
							t.Errorf("key reader rank %d (buf %d): key %d differs (%v)", g, sb, k, err)
						}
					}
					h.Close()
				}
			}
		})
	}
}

// TestPropertyLiveTail extends the round-trip property to live-tail
// interleavings: writers with Options.Watermarks flush at random points
// and probe their own stream through LoadTailLayout after every flush. A direct
// writer's committed frontier must equal exactly the bytes flushed (never
// uncommitted bytes); a collective writer's must never exceed the bytes
// written; and in both cases every committed byte must match the payload
// prefix. After Close, LoadTailLayout must load final and return the
// whole payload with io.EOF.
func TestPropertyLiveTail(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 8; iter++ {
		n := 2 + rng.Intn(5)
		nfiles := 1 + rng.Intn(2)
		if nfiles > n {
			nfiles = n
		}
		chunk := int64(64 + rng.Intn(700))
		fsblk := int64(64 << rng.Intn(3))
		bufSize := bufSizeChoices(rng)
		group := 0
		async := false
		if rng.Intn(3) == 0 { // some iterations go collective
			group = 2 + rng.Intn(n)
			async = rng.Intn(2) == 0
			bufSize = 0
		}
		sizes := make([]int, n)
		for r := range sizes {
			sizes[r] = rng.Intn(3 * int(alignUp(chunk, fsblk)))
		}
		pieceSeed := rng.Int63()

		name := fmt.Sprintf("iter%d n=%d files=%d chunk=%d fsblk=%d g=%d async=%v buf=%d",
			iter, n, nfiles, chunk, fsblk, group, async, bufSize)
		t.Run(name, func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			mpi.Run(n, func(c *mpi.Comm) {
				f, err := ParOpen(c, fsys, "live.sion", WriteMode, &Options{
					ChunkSize: chunk, FSBlockSize: fsblk, NFiles: nfiles,
					CollectorGroup: group, AsyncCollective: async,
					BufferSize: bufSize, Watermarks: true,
				})
				if err != nil {
					t.Error(err)
					return
				}
				// ParOpen only synchronizes within per-file sub-communicators,
				// but LoadTailLayout opens every physical file: barrier so all
				// segments exist before any rank starts probing.
				c.Barrier()
				payload := rankPayload(c.Rank(), sizes[c.Rank()])
				prng := rand.New(rand.NewSource(pieceSeed + int64(c.Rank())))
				probe := func(flushed int64, written int64) {
					tl, err := LoadTailLayout(fsys, "live.sion")
					if err != nil {
						t.Errorf("rank %d: LoadTailLayout: %v", c.Rank(), err)
						return
					}
					defer tl.Close()
					committed := tl.Layout().RankSize(c.Rank())
					if group == 0 {
						if committed != flushed {
							t.Errorf("rank %d: committed %d, want exactly the %d flushed bytes",
								c.Rank(), committed, flushed)
						}
					} else if committed > written {
						t.Errorf("rank %d: committed %d exceeds %d written bytes",
							c.Rank(), committed, written)
					}
					got := make([]byte, committed)
					if m, err := tl.ReadRankAt(c.Rank(), got, 0); m != len(got) || err != nil {
						t.Errorf("rank %d: tail read = (%d, %v), want (%d, nil)", c.Rank(), m, err, len(got))
						return
					}
					if !bytes.Equal(got, payload[:committed]) {
						t.Errorf("rank %d: committed bytes differ from payload prefix", c.Rank())
					}
					// At the frontier a live multifile yields ErrAgain.
					if n2, err := tl.ReadRankAt(c.Rank(), make([]byte, 1), committed); n2 != 0 || err != ErrAgain {
						t.Errorf("rank %d: at frontier got (%d, %v), want (0, ErrAgain)", c.Rank(), n2, err)
					}
				}
				var flushed int64
				for off := 0; off < len(payload); {
					end := off + 1 + prng.Intn(2*int(chunk))
					if end > len(payload) {
						end = len(payload)
					}
					if _, err := f.Write(payload[off:end]); err != nil {
						t.Error(err)
						return
					}
					off = end
					if prng.Intn(2) == 0 {
						if err := f.Flush(); err != nil {
							t.Error(err)
							return
						}
						flushed = int64(off)
						probe(flushed, int64(off))
					} else if group == 0 && bufSize == 0 && prng.Intn(2) == 0 {
						// Between flushes nothing new may become visible.
						probe(flushed, int64(off))
					}
				}
				if err := f.Close(); err != nil {
					t.Error(err)
				}
			})
			// After Close every rank reads back in full, finalized.
			tl, err := LoadTailLayout(fsys, "live.sion")
			if err != nil {
				t.Fatalf("LoadTailLayout after close: %v", err)
			}
			defer tl.Close()
			if !tl.Layout().Final() {
				t.Fatal("not final after Close")
			}
			for r := 0; r < n; r++ {
				got := make([]byte, sizes[r]+1)
				m, err := tl.ReadRankAt(r, got, 0)
				if m != sizes[r] || err != io.EOF {
					t.Fatalf("rank %d: draining = (%d, %v), want (%d, io.EOF)", r, m, err, sizes[r])
				}
				if !bytes.Equal(got[:m], rankPayload(r, sizes[r])) {
					t.Fatalf("rank %d: finalized bytes differ", r)
				}
			}
			if err := Verify(fsys, "live.sion"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropertyRoundTripObjStore runs the round-trip property through the
// simulated object-store backend (internal/simfs ObjStore with a tiny
// part size, so multi-part objects and staged copies occur at test
// scale): for random geometries, every write mode (unbuffered direct,
// buffered direct, synchronous collective, async collective) must
// produce byte-identical multifiles, and every read mode must return
// exactly the written payloads. A final zero-option cycle lets the
// capability descriptor pick the geometry (part-sized FS blocks,
// fanout files, BufferAuto staging) and checks logical identity — the
// physical layout legitimately differs from the explicit arms.
func TestPropertyRoundTripObjStore(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	prof := simfs.ObjProfile{
		PartBytes: 8192, MaxGetBytes: 16384, PreferredGetBytes: 8192, WriteFanout: 3,
	}
	for iter := 0; iter < 6; iter++ {
		n := 2 + rng.Intn(6)
		nfiles := 1 + rng.Intn(3)
		if nfiles > n {
			nfiles = n
		}
		chunk := int64(48 + rng.Intn(500))
		fsblk := int64(64 << rng.Intn(3))
		group := 2 + rng.Intn(n)
		bufSize := bufSizeChoices(rng)
		readBuf := bufSizeChoices(rng)
		sizes := make([]int, n)
		for r := range sizes {
			sizes[r] = rng.Intn(3 * int(alignUp(chunk, fsblk)))
		}

		name := fmt.Sprintf("iter%d n=%d files=%d chunk=%d fsblk=%d g=%d buf=%d rbuf=%d",
			iter, n, nfiles, chunk, fsblk, group, bufSize, readBuf)
		t.Run(name, func(t *testing.T) {
			obj := simfs.NewObjStore(prof)
			fsys := obj.Wrap(fsio.NewOS(t.TempDir()), nil)
			if caps := fsio.CapabilitiesOf(fsys); caps.PartSizeFloor != prof.PartBytes {
				t.Fatalf("backend descriptor lost: %+v", caps)
			}
			write := func(file string, g int, async bool, buf int64) {
				mpi.Run(n, func(c *mpi.Comm) {
					f, err := ParOpen(c, fsys, file, WriteMode, &Options{
						ChunkSize: chunk, FSBlockSize: fsblk, NFiles: nfiles,
						CollectorGroup: g, AsyncCollective: async, BufferSize: buf,
					})
					if err != nil {
						t.Error(err)
						return
					}
					payload := rankPayload(c.Rank(), sizes[c.Rank()])
					prng := rand.New(rand.NewSource(int64(3000*iter + c.Rank())))
					for off := 0; off < len(payload); {
						end := off + 1 + prng.Intn(2*int(chunk))
						if end > len(payload) {
							end = len(payload)
						}
						if _, err := f.Write(payload[off:end]); err != nil {
							t.Error(err)
							return
						}
						off = end
					}
					if err := f.Close(); err != nil {
						t.Error(err)
					}
				})
			}
			// BufferOff pins the first arm to genuinely unbuffered small
			// writes (BufferSize 0 would auto-upgrade to BufferAuto on
			// this backend); the others take whatever staging they get.
			write("direct.sion", 0, false, BufferOff)
			write("buffered.sion", 0, false, bufSize)
			write("coll.sion", group, false, 0)
			write("async.sion", group, true, 0)
			for k := 0; k < nfiles; k++ {
				a := fileName("direct.sion", k)
				mustEqualFiles(t, fsys, a, fileName("buffered.sion", k))
				mustEqualFiles(t, fsys, a, fileName("coll.sion", k))
				mustEqualFiles(t, fsys, a, fileName("async.sion", k))
			}
			if err := Verify(fsys, "async.sion"); err != nil {
				t.Fatal(err)
			}
			offlineToolsObjStore(t, obj, fsys, sizes, nfiles, chunk, fsblk)
			// Staged copies must actually have occurred somewhere in the
			// sweep when chunks landed part-misaligned — otherwise the
			// backend model degenerated to plain POSIX counting.
			if st := obj.Stats(); st.Puts == 0 || st.Gets == 0 {
				t.Fatalf("object-store ledger did not move: %+v", st)
			}
			modes := []struct {
				rg  int
				buf int64
			}{{0, BufferOff}, {0, readBuf}, {group, 0}}
			for _, mode := range modes {
				rg, rbuf := mode.rg, mode.buf
				mpi.Run(n, func(c *mpi.Comm) {
					var ropts *Options
					if rg != 0 {
						ropts = &Options{CollectorGroup: rg}
					} else {
						ropts = &Options{BufferSize: rbuf}
					}
					r, err := ParOpen(c, fsys, "async.sion", ReadMode, ropts)
					if err != nil {
						t.Error(err)
						return
					}
					defer r.Close()
					payload := rankPayload(c.Rank(), sizes[c.Rank()])
					got := make([]byte, len(payload))
					if len(got) > 0 {
						if _, err := io.ReadFull(r, got); err != nil {
							t.Errorf("rank %d: %v", c.Rank(), err)
							return
						}
					}
					if !bytes.Equal(got, payload) {
						t.Errorf("rank %d: payload mismatch (group %d buf %d)", c.Rank(), rg, rbuf)
					}
				})
			}
			// Zero-option cycle: the descriptor picks the geometry.
			mpi.Run(n, func(c *mpi.Comm) {
				f, err := ParOpen(c, fsys, "auto.sion", WriteMode, &Options{ChunkSize: chunk})
				if err != nil {
					t.Error(err)
					return
				}
				if got := f.FSBlockSize(); got != prof.PartBytes {
					t.Errorf("auto FSBlockSize = %d, want the part size %d", got, prof.PartBytes)
				}
				if want := min(n, int(prof.WriteFanout)); f.NumFiles() != want {
					t.Errorf("auto NFiles = %d, want the fanout %d", f.NumFiles(), want)
				}
				if _, err := f.Write(rankPayload(c.Rank(), sizes[c.Rank()])); err != nil {
					t.Error(err)
					return
				}
				if err := f.Close(); err != nil {
					t.Error(err)
				}
			})
			mpi.Run(n, func(c *mpi.Comm) {
				r, err := ParOpen(c, fsys, "auto.sion", ReadMode, nil)
				if err != nil {
					t.Error(err)
					return
				}
				defer r.Close()
				payload := rankPayload(c.Rank(), sizes[c.Rank()])
				got := make([]byte, len(payload))
				if len(got) > 0 {
					if _, err := io.ReadFull(r, got); err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
						return
					}
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("rank %d: auto-geometry payload mismatch", c.Rank())
				}
			})
		})
	}
}

// offlineToolsObjStore runs the offline tools over the object store on
// async.sion's payloads: Defrag then Verify, Split with each task file
// stat'ed, read back and removed, and Repair of a multifile with chunk
// headers whose first file lost its tail, then Verify and read-back.
func offlineToolsObjStore(t *testing.T, obj *simfs.ObjStore, fsys fsio.FileSystem, sizes []int, nfiles int, chunk, fsblk int64) {
	t.Helper()
	n := len(sizes)
	readRanks := func(name string) {
		sf, err := Open(fsys, name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		defer sf.Close()
		for r := 0; r < n; r++ {
			got, err := sf.ReadRank(r)
			want := rankPayload(r, sizes[r])
			// A repaired final block may come back padded to capacity.
			if err != nil || len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
				t.Fatalf("%s rank %d: %d bytes, %v", name, r, len(got), err)
			}
		}
	}
	if err := Defrag(fsys, "async.sion", fsys, "tight.sion"); err != nil {
		t.Fatal(err)
	}
	if err := Verify(fsys, "tight.sion"); err != nil {
		t.Fatal(err)
	}
	readRanks("tight.sion")

	if err := Split(fsys, "tight.sion", fsys, "task-%d", nil); err != nil {
		t.Fatal(err)
	}
	deletes := obj.Stats().Deletes
	for r := 0; r < n; r++ {
		name := fmt.Sprintf("task-%d", r)
		want := rankPayload(r, sizes[r])
		if fi, err := fsys.Stat(name); err != nil || fi.Size != int64(len(want)) {
			t.Fatalf("stat %s: %+v, %v; want %d bytes", name, fi, err, len(want))
		}
		fh, err := fsys.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := fh.ReadAt(got, 0); err != nil && err != io.EOF || !bytes.Equal(got, want) {
			t.Fatalf("%s: split content mismatch (%v)", name, err)
		}
		fh.Close()
		if err := fsys.Remove(name); err != nil {
			t.Fatal(err)
		}
		if _, err := fsys.Stat(name); !errors.Is(err, fsio.ErrNotExist) {
			t.Fatalf("stat %s after Remove: %v", name, err)
		}
	}
	if got := obj.Stats().Deletes - deletes; got != int64(n) {
		t.Fatalf("removing %d task files billed %d deletes", n, got)
	}

	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "torn.sion", WriteMode, &Options{
			ChunkSize: chunk, FSBlockSize: fsblk, NFiles: nfiles, ChunkHeaders: true,
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
	fh, err := fsys.OpenRW("torn.sion")
	if err != nil {
		t.Fatal(err)
	}
	sz, err := fh.Size()
	if err != nil {
		t.Fatal(err)
	}
	copies := obj.Stats().Copies
	if err := fh.Truncate(sz - tailSize - 8); err != nil {
		t.Fatal(err)
	}
	if got := obj.Stats().Copies - copies; got != 1 {
		t.Fatalf("a truncate billed %d staged copies, want 1", got)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fsys, "torn.sion"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open after truncation: %v, want ErrCorrupt", err)
	}
	if _, err := Repair(fsys, "torn.sion"); err != nil {
		t.Fatal(err)
	}
	if err := Verify(fsys, "torn.sion"); err != nil {
		t.Fatal(err)
	}
	readRanks("torn.sion")
}

// TestPropertyRoundTripTransientFaults layers the resilience stack under
// the round-trip property: the OS file system is wrapped in the seeded
// flaky-fault lab (random per-op transient EIO/EAGAIN rate) and then in
// the resil retry decorator, and full write/read cycles across the direct
// and collective paths must still converge to byte identity — the library
// code above fsio never sees a transient fault, only the policy layer
// does. Also pins the overhead guard: the retry counters move only when
// injection is on.
func TestPropertyRoundTripTransientFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 6; iter++ {
		n := 2 + rng.Intn(5)
		nfiles := 1 + rng.Intn(2)
		if nfiles > n {
			nfiles = n
		}
		chunk := int64(64 + rng.Intn(400))
		fsblk := int64(64 << rng.Intn(3))
		rate := 0.02 + 0.13*rng.Float64() // 2%..15% per-op fault rate
		group := 0
		if rng.Intn(3) == 0 {
			group = 2 + rng.Intn(n)
		}
		sizes := make([]int, n)
		for r := range sizes {
			sizes[r] = rng.Intn(3 * int(alignUp(chunk, fsblk)))
		}
		seed := uint64(rng.Int63())

		name := fmt.Sprintf("iter%d n=%d files=%d chunk=%d rate=%.3f g=%d",
			iter, n, nfiles, chunk, rate, group)
		t.Run(name, func(t *testing.T) {
			fl := simfs.NewFlaky(simfs.FlakyConfig{
				Seed: seed, ReadErrProb: rate, WriteErrProb: rate, MetaErrProb: rate,
			})
			var ctrs resil.Counters
			// 12 attempts: even at the 15% ceiling a give-up is a
			// ~1e-10-per-op event, so the property is deterministic in
			// practice while the budget stays bounded.
			budget := resil.Budget{MaxAttempts: 12, Seed: seed, Sleep: func(time.Duration) {}}
			fsys := resil.Wrap(fl.Wrap(fsio.NewOS(t.TempDir()), nil), budget, &ctrs)

			mpi.Run(n, func(c *mpi.Comm) {
				f, err := ParOpen(c, fsys, "flaky.sion", WriteMode, &Options{
					ChunkSize: chunk, FSBlockSize: fsblk, NFiles: nfiles,
					CollectorGroup: group,
				})
				if err != nil {
					t.Error(err)
					return
				}
				payload := rankPayload(c.Rank(), sizes[c.Rank()])
				if _, err := f.Write(payload); err != nil {
					t.Error(err)
					return
				}
				if err := f.Close(); err != nil {
					t.Error(err)
				}
			})
			if t.Failed() {
				return
			}
			if err := Verify(fsys, "flaky.sion"); err != nil {
				t.Fatalf("Verify under faults: %v", err)
			}
			mpi.Run(n, func(c *mpi.Comm) {
				r, err := ParOpen(c, fsys, "flaky.sion", ReadMode, nil)
				if err != nil {
					t.Error(err)
					return
				}
				defer r.Close()
				payload := rankPayload(c.Rank(), sizes[c.Rank()])
				got := make([]byte, len(payload))
				if len(got) > 0 {
					if _, err := io.ReadFull(r, got); err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
						return
					}
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("rank %d: bytes differ under fault rate %.3f", c.Rank(), rate)
				}
			})
			s := ctrs.Snapshot()
			if s.GiveUps != 0 {
				t.Fatalf("12-attempt budget gave up %d times at rate %.3f", s.GiveUps, rate)
			}
			if fl.Stats().Injected > 0 && s.Retries == 0 {
				t.Fatalf("faults injected (%d) but nothing retried", fl.Stats().Injected)
			}

			// Overhead guard: injection off → the same cycle must record
			// zero additional retries.
			fl.SetEnabled(false)
			before := ctrs.Snapshot().Retries
			mpi.Run(n, func(c *mpi.Comm) {
				r, err := ParOpen(c, fsys, "flaky.sion", ReadMode, nil)
				if err != nil {
					t.Error(err)
					return
				}
				defer r.Close()
				payload := rankPayload(c.Rank(), sizes[c.Rank()])
				got := make([]byte, len(payload))
				if len(got) > 0 {
					if _, err := io.ReadFull(r, got); err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
					}
				}
			})
			if after := ctrs.Snapshot().Retries; after != before {
				t.Fatalf("injection off but retries moved: %d -> %d", before, after)
			}
		})
	}
}
