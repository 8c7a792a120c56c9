package sion

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

// wmImage builds a sidecar file image for tests: header plus explicit
// cells, each (li, block, slot, seq, bytes, sealed).
type wmCellSpec struct {
	li, block, slot int
	seq             uint64
	bytes           int64
	sealed          bool
}

func wmImage(nlocal, filenum int, cells []wmCellSpec) []byte {
	end := int64(wmHeaderSize)
	for _, c := range cells {
		if o := wmCellOff(nlocal, c.li, c.block, c.slot) + wmCellSize; o > end {
			end = o
		}
	}
	buf := make([]byte, end)
	copy(buf, encodeWMHeader(nlocal, filenum))
	for _, c := range cells {
		copy(buf[wmCellOff(nlocal, c.li, c.block, c.slot):], encodeWMCell(c.seq, c.bytes, c.sealed))
	}
	return buf
}

// TestWatermarkReplay exercises the decode rules: newest valid slot wins,
// a torn slot falls back to its partner, an unsealed block is the open
// frontier, and a gap ends the rank.
func TestWatermarkReplay(t *testing.T) {
	img := wmImage(3, 0, []wmCellSpec{
		// rank 0: block 0 sealed, block 1 open at 300 (two commits, newest wins).
		{0, 0, 1, 1, 1024, true},
		{0, 1, 1, 1, 100, false},
		{0, 1, 0, 2, 300, false},
		// rank 1: block 0 committed twice; the newer slot is then torn —
		// recovery is the partner's 500, not failure.
		{1, 0, 1, 1, 500, false},
		{1, 0, 0, 2, 700, false},
		// rank 2: nothing committed.
	})
	// Tear rank 1's newest slot mid-cell.
	tornAt := wmCellOff(3, 1, 0, 0) + 9
	img[tornAt] ^= 0xff
	nl, fn, states, err := decodeWatermarks(img)
	if err != nil {
		t.Fatal(err)
	}
	if nl != 3 || fn != 0 {
		t.Fatalf("header (%d, %d), want (3, 0)", nl, fn)
	}
	want := [][]TailCommit{
		{{Bytes: 1024, Sealed: true}, {Bytes: 300, Sealed: false}},
		{{Bytes: 500, Sealed: false}},
		nil,
	}
	for li, w := range want {
		if len(states[li]) != len(w) {
			t.Fatalf("rank %d: %d blocks, want %d (%+v)", li, len(states[li]), len(w), states[li])
		}
		for b, c := range w {
			if states[li][b] != c {
				t.Fatalf("rank %d block %d: %+v, want %+v", li, b, states[li][b], c)
			}
		}
	}
	if got := wmCommitted(states[0]); got != 1324 {
		t.Fatalf("rank 0 committed %d, want 1324", got)
	}

	// Structural damage is ErrCorrupt, unlike torn cells.
	bad := append([]byte(nil), img...)
	bad[0] = 'X'
	if _, _, _, err := decodeWatermarks(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestWatermarkTornFinalCommitRepair crashes a multifile write (no Close,
// so no metablock 2) and tears the newest slot of one rank's final commit
// record. Repair must recover that rank to its previous durable watermark
// — not fail the rank — and the result must pass Verify and read back
// byte-identically, with chunk headers (whose open header Repair seals
// with the watermark's count) and without.
func TestWatermarkTornFinalCommitRepair(t *testing.T) {
	for _, hdrs := range []bool{false, true} {
		t.Run(fmt.Sprintf("chunkheaders=%v", hdrs), func(t *testing.T) {
			const n, chunk, fsblk = 3, int64(1 << 12), int64(256)
			fsys := fsio.NewOS(t.TempDir())
			payloads := make([][]byte, n)
			for r := range payloads {
				payloads[r] = rankPayload(r, 900)
			}
			mpi.Run(n, func(c *mpi.Comm) {
				f, err := ParOpen(c, fsys, "crash.sion", WriteMode, &Options{
					ChunkSize: chunk, FSBlockSize: fsblk, Watermarks: true, ChunkHeaders: hdrs,
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Three flushes → three commits of the open block: 300, 600, 900.
				for i := 0; i < 3; i++ {
					if _, err := f.Write(payloads[c.Rank()][300*i : 300*(i+1)]); err != nil {
						t.Error(err)
					}
					if err := f.Flush(); err != nil {
						t.Error(err)
					}
				}
				// Crash: no Close, so no trailer and no metablock 2.
			})

			// Tear rank 0's newest commit slot (seq 3 lives in slot 1).
			wfh, err := fsys.OpenRW(wmName("crash.sion", 0))
			if err != nil {
				t.Fatal(err)
			}
			slotOff := wmCellOff(n, 0, 0, 1)
			probe := make([]byte, wmCellSize)
			if _, err := wfh.ReadAt(probe, slotOff); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if seq, bytes, _, ok := parseWMCell(probe); !ok || seq != 3 || bytes != 900 {
				t.Fatalf("expected seq-3 commit of 900 bytes in slot 1, got seq=%d bytes=%d ok=%v", seq, bytes, ok)
			}
			if _, err := wfh.WriteAt([]byte{0xde, 0xad}, slotOff+10); err != nil {
				t.Fatal(err)
			}
			wfh.Close()

			if _, err := Open(fsys, "crash.sion"); err == nil {
				t.Fatal("unclosed multifile should not open before Repair")
			}
			recovered, err := Repair(fsys, "crash.sion")
			if err != nil {
				t.Fatalf("Repair: %v", err)
			}
			if recovered == 0 {
				t.Fatal("Repair recovered nothing")
			}
			if err := Verify(fsys, "crash.sion"); err != nil {
				t.Fatalf("Verify after Repair: %v", err)
			}
			sf, err := Open(fsys, "crash.sion")
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			for r := 0; r < n; r++ {
				want := payloads[r]
				if r == 0 {
					want = want[:600] // recovered to the partner slot's watermark
				}
				if got := sf.RankBytes(r); got != int64(len(want)) {
					t.Fatalf("rank %d: %d bytes after repair, want %d", r, got, len(want))
				}
				if err := sf.Seek(r, 0, 0); err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(sf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("rank %d: recovered bytes differ", r)
				}
			}
		})
	}
}

// TestWatermarkCrashRecovery runs many simulated trials on a volatile
// simfs with a failure injected at a random operation count: writers
// flush at random points and die; the surviving (durable) state must
// decode, every committed byte must match the payload prefix (zero torn
// records), the committed total must be one the writer actually attempted
// to commit, and Repair+Verify must accept the remains.
func TestWatermarkCrashRecovery(t *testing.T) {
	const n, chunk, fsblk = 3, int64(600), int64(256)
	rng := rand.New(rand.NewSource(20260808))
	trials, ok := 20, 0
	for trial := 0; trial < trials; trial++ {
		fs := simfs.New(simfs.Jugene())
		fs.SetVolatileWrites(true)
		fl := simfs.NewFlaky(simfs.FlakyConfig{})
		left := 3 + rng.Intn(220) // the writers die at the left+1-th data write or sync
		fl.SetRule(func(op fsio.Op) error {
			if op.Call == "Sync" || op.Len > 0 && (op.Call == "WriteAt" || op.Call == "WriteZeroAt") {
				if left--; left < 0 {
					return errInjected
				}
			}
			return nil
		})

		payloads := make([][]byte, n)
		for r := range payloads {
			payloads[r] = rankPayload(1000*trial+r, 400+rng.Intn(1200))
		}
		pieceSeed := rng.Int63()
		opened := make([]bool, n)
		attempts := make([][]int64, n) // totals at each Flush call
		e := vtime.NewEngine()
		mpi.RunSim(e, n, mpi.DefaultCost, func(c *mpi.Comm) {
			f, err := ParOpen(c, fl.Wrap(fs.View(c.Rank(), c.Proc()), nil), "t.sion", WriteMode, &Options{
				ChunkSize: chunk, FSBlockSize: fsblk, Watermarks: true,
			})
			if err != nil {
				return // injected failure during open — trial skipped below
			}
			opened[c.Rank()] = true
			prng := rand.New(rand.NewSource(pieceSeed + int64(c.Rank())))
			payload := payloads[c.Rank()]
			var written int64
			for off := 0; off < len(payload); {
				end := off + 1 + prng.Intn(500)
				if end > len(payload) {
					end = len(payload)
				}
				if _, err := f.Write(payload[off:end]); err != nil {
					return // died mid-write
				}
				written = int64(end)
				if prng.Intn(2) == 0 {
					attempts[c.Rank()] = append(attempts[c.Rank()], written)
					if err := f.Flush(); err != nil {
						return // died mid-commit
					}
				}
				off = end
			}
			attempts[c.Rank()] = append(attempts[c.Rank()], written)
			f.Flush()
			// Crash before Close: no trailer is ever written.
		})
		allOpened := true
		for _, o := range opened {
			allOpened = allOpened && o
		}
		if !allOpened {
			continue // open died under injection; nothing to check
		}
		fs.Crash() // drop every unsynced write

		fsys := fs.View(0, nil)
		tl, err := LoadTailLayout(fsys, "t.sion")
		if err != nil {
			t.Fatalf("trial %d: LoadTailLayout: %v", trial, err)
		}
		for r := 0; r < n; r++ {
			committed := tl.Layout().RankSize(r)
			valid := committed == 0
			for _, a := range attempts[r] {
				valid = valid || committed == a
			}
			if !valid {
				t.Fatalf("trial %d rank %d: committed %d not among attempted commits %v",
					trial, r, committed, attempts[r])
			}
			got := make([]byte, committed)
			if m, err := tl.ReadRankAt(r, got, 0); m != len(got) || err != nil {
				t.Fatalf("trial %d rank %d: reading committed bytes = (%d, %v)", trial, r, m, err)
			}
			if !bytes.Equal(got, payloads[r][:committed]) {
				t.Fatalf("trial %d rank %d: committed bytes torn", trial, r)
			}
		}
		tl.Close()
		if _, err := Repair(fsys, "t.sion"); err != nil {
			t.Fatalf("trial %d: Repair: %v", trial, err)
		}
		if err := Verify(fsys, "t.sion"); err != nil {
			t.Fatalf("trial %d: Verify: %v", trial, err)
		}
		ok++
	}
	if ok == 0 {
		t.Fatal("every trial died before ParOpen completed — injection range too tight")
	}
	t.Logf("checked %d/%d trials (others died during open)", ok, trials)
}

// FuzzDecodeWatermark fuzzes the sidecar codec the same way
// FuzzDecodeMapping fuzzes the mapping codec: no input may panic, and any
// accepted input must yield in-bounds state.
func FuzzDecodeWatermark(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeWMHeader(2, 0))
	f.Add(wmImage(2, 0, []wmCellSpec{
		{0, 0, 1, 1, 256, true},
		{0, 1, 1, 1, 10, false},
		{1, 0, 1, 1, 256, false},
	}))
	torn := wmImage(1, 3, []wmCellSpec{{0, 0, 1, 1, 99, true}})
	torn[wmHeaderSize+wmCellSize+5] ^= 0x40
	f.Add(torn)
	badMagic := encodeWMHeader(1, 0)
	badMagic[3] = '?'
	f.Add(badMagic)
	hugeTasks := encodeWMHeader(1, 0)
	le().PutUint32(hugeTasks[12:], 1<<31-1)
	f.Add(hugeTasks)
	f.Add(wmImage(1, 0, nil)[:wmHeaderSize-1]) // truncated header
	badVersion := encodeWMHeader(1, 0)
	le().PutUint32(badVersion[8:], wmVersion+1)
	f.Add(badVersion)
	f.Add(encodeWMHeader(1, -1))                               // negative file number
	f.Add(wmImage(1, 0, []wmCellSpec{{0, 0, 1, 0, 10, true}})) // a cell with sequence 0
	f.Fuzz(func(t *testing.T, data []byte) {
		nl, fn, states, err := decodeWatermarks(data)
		if err != nil {
			return
		}
		if nl <= 0 || nl > maxTasks || fn < 0 || fn >= maxPhysFiles {
			t.Fatalf("accepted out-of-range header (%d, %d)", nl, fn)
		}
		if len(states) != nl {
			t.Fatalf("%d rank states for %d ranks", len(states), nl)
		}
		for li, blocks := range states {
			for b, c := range blocks {
				if c.Bytes < 0 || c.Bytes > maxChunkSize {
					t.Fatalf("rank %d block %d: implausible committed bytes %d", li, b, c.Bytes)
				}
				if !c.Sealed && b != len(blocks)-1 {
					t.Fatalf("rank %d: unsealed block %d is not the frontier", li, b)
				}
			}
		}
	})
}

// TestCollectiveWatermarksOnFullChunks: a collective member whose bytes
// fill its chunks exactly commits one sealed watermark per chunk and no
// empty one after them, as metablock 2 records it, so the closed
// multifile verifies.
func TestCollectiveWatermarksOnFullChunks(t *testing.T) {
	fs := simfs.New(simfs.Jugene())
	err := sweepSim(fs, nil, func(c *mpi.Comm, fsys fsio.FileSystem) {
		f, err := ParOpen(c, fsys, "w.sion", WriteMode, &Options{
			ChunkSize: 512, FSBlockSize: 256, CollectorGroup: 2, Watermarks: true,
		})
		if err == nil {
			_, err = f.Write(rankPayload(c.Rank(), 2*512))
			err = errors.Join(err, f.Close())
		}
		if err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	v := fs.View(0, nil)
	if err := Verify(v, "w.sion"); err != nil {
		t.Fatal(err)
	}
	states, err := loadWMStates(v, "w.sion", 0, sweepRanks)
	if err != nil {
		t.Fatal(err)
	}
	for li, blocks := range states {
		if len(blocks) != 2 || !blocks[0].Sealed || !blocks[1].Sealed || blocks[1].Bytes != 512 {
			t.Errorf("local rank %d: watermarks %+v, want two sealed full chunks", li, blocks)
		}
	}
}
