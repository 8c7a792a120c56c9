package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"sync"
	"testing"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/resil"
)

// recordFS is an fsio decorator that hashes the (file, off, len) of every
// ReadAt issued while it is armed, and reports a ranged-read ceiling so the
// server's span windows are part of the recorded sequence.
type recordFS struct {
	fsio.FileSystem
	caps fsio.Capabilities

	mu      sync.Mutex
	armed   bool
	reads   int
	longest int // bytes of the longest read
	sum     hash.Hash
}

func (r *recordFS) Capabilities() fsio.Capabilities { return r.caps }

func (r *recordFS) Open(name string) (fsio.File, error) {
	fh, err := r.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return &recordFile{File: fh, fs: r, name: name}, nil
}

type recordFile struct {
	fsio.File
	fs   *recordFS
	name string
}

func (f *recordFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	if f.fs.armed {
		f.fs.reads++
		f.fs.longest = max(f.fs.longest, len(p))
		fmt.Fprintf(f.fs.sum, "%s %d %d\n", f.name, off, len(p))
	}
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

// goldenReadSequence is the SHA-256 of the backend (file, off, len) lines
// the stream below issues with cache blocks of one FS block. A sequential
// client must keep issuing exactly these reads: same spans, same gap
// bridging, same ranged-read windows, same order.
//
// Both goldens were re-recorded when a full cache began to admit a block
// only on its second miss, and again when it began to admit by frequency.
// The stream's windows of 256 bytes and more are at least an FS block, so
// once a shard is full their blocks are admitted only if the shard was
// asked for them more often than for its LRU tail, and then at the tail;
// the others are read around the cache, exactly the window's bytes, and
// the blocks they would have evicted stay resident, so later windows hit
// and miss elsewhere. The same stream issued 1236 and 1257 reads when
// every miss was admitted (maxReads), 1231 and 1248 under the second-miss
// rule, and 1188 and 1182 (1173 on the chunk grid, below) under the
// first-to-beat-the-tail rule; it may not issue more than the first. Both
// were re-recorded when a large window's block had to be asked for more
// than twice as often as the tail: more windows are read around, so more
// later ones miss. 1188 reads of 1 458 877 bytes became 1181 of 1 475 251
// here, 1173 of 1 481 766 became 1143 of 1 429 907 below; of that, the
// cache pass that claims each block in its one visit, evicting for a miss
// before it reaches the request's later hits, moved 34 bytes.
const goldenReadSequence = "42897438a969803f7a9bb46a709d86b86bf34b055e8222920fab0d0fac869899"

// goldenReadSequenceWide is the same stream's hash with cache blocks of
// four FS blocks, the default geometry's shape: first misses read only the
// FS blocks their window touches, a partly resident block reads only what
// its frame lacks (but from or to each block edge its window touches, and
// on to the block's end from a window that starts inside the frame or
// right after it), and
// ranged-read windows start where the previous window's vectors end.
//
// It was re-recorded when a partly resident block stopped being read
// whole: 1182 reads of 1 500 227 bytes became 1183 of 1 499 203. Eight
// re-fills read 256–768 bytes less; a block one of them left partial is
// read in a later span beside a read-around window (185 -> 1209 bytes);
// another, near the end of file 1, costs a later window one more read.
// It was re-recorded again when cache blocks moved onto each file's chunk
// grid (sion.Layout.GridShift): the 8 KiB chunks start one 256-byte FS block past a
// multiple of the 1 KiB block, so a window reaching a chunk's end touched
// one block more. 1183 reads of 1 499 203 bytes became 1173 of 1 481 766.
const goldenReadSequenceWide = "484a72ef531d591cf1d4c251f58302fd40c31f5d32932fe6f2d522311f9b4a67"

// TestSequentialReadSequenceIsGolden replays a seeded sequential stream of
// 500 mixed requests — random windows of five sizes over both physical
// files, windows straddling EOF, and miss–hit–miss windows (a few resident
// blocks in the middle of a cold window, so the gap rule decides between
// bridging and splitting) — through a small cache, checks every byte, and
// compares the backend reads it caused with the committed golden, once
// per cache-block geometry.
func TestSequentialReadSequenceIsGolden(t *testing.T) {
	inner := fsio.NewOS(t.TempDir())
	const nranks, fsblk = 8, 256
	mpi.Run(nranks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, inner, "g.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 8192, FSBlockSize: fsblk, NFiles: 2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(testPayload(c.Rank(), 40<<10+97*c.Rank())); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	for _, arm := range []struct {
		name     string
		block    int64
		golden   string
		maxReads int
	}{
		{"fs-block", fsblk, goldenReadSequence, 1236},
		{"4-fs-blocks", 4 * fsblk, goldenReadSequenceWide, 1257}, // partial frames
	} {
		t.Run(arm.name, func(t *testing.T) { replayReadSequence(t, inner, arm.block, arm.golden, arm.maxReads) })
	}
}

func replayReadSequence(t *testing.T, inner fsio.FileSystem, block int64, golden string, maxReads int) {
	rec := &recordFS{FileSystem: inner, caps: fsio.Capabilities{MaxReadBytes: 2048}, sum: sha256.New()}
	s, err := New(rec, "g.sion", &Config{
		CacheBytes: 16 << 10, // 64 FS blocks of 256 B against ~1300 on disk
		BlockBytes: block,
		Shards:     4,
		MaxSpanGap: 2 * block, // bridge up to two resident blocks, split at three
		Retry:      &resil.Budget{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The reference bytes: each physical file, read around the server.
	nfiles := s.Layout().NumFiles()
	raw := make([][]byte, nfiles)
	for k := range raw {
		fi, err := inner.Stat(s.Layout().PhysicalName(k))
		if err != nil {
			t.Fatal(err)
		}
		fh, err := inner.Open(fi.Name)
		if err != nil {
			t.Fatal(err)
		}
		raw[k] = make([]byte, fi.Size)
		if _, err := fh.ReadAt(raw[k], 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		fh.Close()
	}
	read := func(file int, off, n int64) {
		t.Helper()
		p := bytes.Repeat([]byte{0xAA}, int(n)) // poisoned: past-EOF bytes must come back zero
		if err := s.ReadFileAt(file, p, off, nil); err != nil {
			t.Fatalf("ReadFileAt(%d, %d bytes at %d): %v", file, n, off, err)
		}
		want := make([]byte, n)
		if off < int64(len(raw[file])) {
			copy(want, raw[file][off:])
		}
		if !bytes.Equal(p, want) {
			t.Fatalf("ReadFileAt(%d, %d bytes at %d): bytes differ from the file", file, n, off)
		}
	}

	rec.mu.Lock()
	rec.armed = true
	rec.mu.Unlock()
	rng := rand.New(rand.NewSource(20090814))
	sizes := []int64{64, 256, 1000, 4096, 9000}
	for i := 0; i < 500; i++ {
		file := rng.Intn(nfiles)
		size := int64(len(raw[file]))
		switch i % 4 {
		case 3: // miss–hit–miss: make 1..4 middle blocks resident, then read across them
			x := rng.Int63n(size-4096) / 256 * 256
			read(file, x+1024, 256*int64(1+rng.Intn(4)))
			read(file, x+int64(rng.Intn(256)), 4096)
		case 2: // straddle (or start past) EOF
			read(file, size-int64(rng.Intn(3000))+200, sizes[rng.Intn(len(sizes))])
		default:
			n := sizes[rng.Intn(len(sizes))]
			read(file, rng.Int63n(size-n), n)
		}
	}
	rec.mu.Lock()
	got, reads := hex.EncodeToString(rec.sum.Sum(nil)), rec.reads
	rec.mu.Unlock()
	if st := s.Stats(); int64(reads) != st.BackendReads || st.Hits == 0 || st.Evictions == 0 || st.ReadAround == 0 {
		t.Fatalf("stream did not exercise the cache: %d recorded reads, stats %+v", reads, st)
	}
	if reads > maxReads {
		t.Errorf("the stream issued %d backend reads, more than the %d it issued before blocks were read around the cache", reads, maxReads)
	}
	if got != golden {
		t.Fatalf("backend read sequence changed: %d reads hash to %s, golden %s", reads, got, golden)
	}
}
