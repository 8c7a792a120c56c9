package sion

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

// stageAll sets the staging of every task handle of a serial multifile,
// as ParOpen's Options.BufferSize does for one rank.
func stageAll(sf *SerialFile, n int64) error {
	for _, h := range sf.handles {
		if err := h.SetBufferSize(n); err != nil {
			return err
		}
	}
	return nil
}

// runSimOn runs body on n simulated ranks against an existing simulated FS
// (so request counters accumulate across phases).
func runSimOn(t testing.TB, fs *simfs.FS, n int, body func(c *mpi.Comm, v fsio.FileSystem)) {
	t.Helper()
	e := vtime.NewEngine()
	mpi.RunSim(e, n, mpi.DefaultCost, func(c *mpi.Comm) {
		body(c, fs.View(c.Rank(), c.Proc()))
	})
}

// TestBufferedWriteByteIdentity writes the same payloads through the
// direct path with several BufferSize settings (tiny, one block, auto,
// huge, and with chunk headers) and asserts the multifile segments are
// byte-identical to the unbuffered ones, with Flush interleaved.
func TestBufferedWriteByteIdentity(t *testing.T) {
	const n = 5
	const chunk = int64(700)
	const fsblk = int64(256)
	for _, hdrs := range []bool{false, true} {
		hdrs := hdrs
		t.Run(fmt.Sprintf("chunkHdrs=%v", hdrs), func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			write := func(file string, bufSize int64) {
				mpi.Run(n, func(c *mpi.Comm) {
					f, err := ParOpen(c, fsys, file, WriteMode, &Options{
						ChunkSize: chunk, FSBlockSize: fsblk, NFiles: 2,
						ChunkHeaders: hdrs, BufferSize: bufSize,
					})
					if err != nil {
						t.Error(err)
						return
					}
					payload := rankPayload(c.Rank(), 1700+31*c.Rank())
					for off, i := 0, 0; off < len(payload); i++ {
						end := off + 37 + 13*(i%7)
						if end > len(payload) {
							end = len(payload)
						}
						if _, err := f.Write(payload[off:end]); err != nil {
							t.Error(err)
							return
						}
						if i%5 == 4 {
							if err := f.Flush(); err != nil {
								t.Error(err)
							}
						}
						off = end
					}
					if err := f.Close(); err != nil {
						t.Error(err)
					}
				})
			}
			write("plain.sion", 0)
			for _, bs := range []int64{17, fsblk, BufferAuto, 1 << 20} {
				file := fmt.Sprintf("buf%d.sion", bs)
				write(file, bs)
				for k := 0; k < 2; k++ {
					mustEqualFiles(t, fsys, fileName("plain.sion", k), fileName(file, k))
				}
			}
		})
	}
}

// TestBufferedWriteRequestReduction proves the write-behind claim on the
// simulated file system: the small-record workload issues at least 10×
// fewer write requests through an auto-sized staging buffer.
func TestBufferedWriteRequestReduction(t *testing.T) {
	const n = 4
	const chunk = int64(256 << 10)
	const record = 128
	run := func(file string, bufSize int64) int64 {
		fs := runSim(t, n, func(c *mpi.Comm, fsys fsio.FileSystem) {
			f, err := ParOpen(c, fsys, file, WriteMode, &Options{
				ChunkSize: chunk, BufferSize: bufSize,
			})
			if err != nil {
				panic(err)
			}
			rec := make([]byte, record)
			for i := 0; i < int(chunk)/record; i++ {
				if _, err := f.Write(rec); err != nil {
					panic(err)
				}
			}
			if err := f.Close(); err != nil {
				panic(err)
			}
		})
		st, ok := fs.Stats(file)
		if !ok {
			t.Fatalf("no stats for %s", file)
		}
		return st.WriteRequests
	}
	direct := run("direct.sion", 0)
	buffered := run("buffered.sion", BufferAuto)
	if buffered*10 > direct {
		t.Errorf("buffered write requests %d not ≥10× below direct %d", buffered, direct)
	}
}

// TestBufferedReadAhead asserts that a buffered read handle serves the
// sequential and random-access paths correctly (Seek included) and issues
// far fewer read requests than the unbuffered handle.
func TestBufferedReadAhead(t *testing.T) {
	const n = 4
	const chunk = int64(64 << 10)
	const record = 128
	nrec := int(chunk) / record

	write := func(fsys fsio.FileSystem) {
		mpi.Run(n, func(c *mpi.Comm) {
			f, err := ParOpen(c, fsys, "ra.sion", WriteMode, &Options{ChunkSize: chunk})
			if err != nil {
				panic(err)
			}
			if _, err := f.Write(rankPayload(c.Rank(), int(2*chunk))); err != nil {
				panic(err)
			}
			if err := f.Close(); err != nil {
				panic(err)
			}
		})
	}

	// Correctness on the OS backend: sequential reads, Seek replays, and
	// ReadLogicalAt probes against the expected payload.
	fsys := fsio.NewOS(t.TempDir())
	write(fsys)
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "ra.sion", ReadMode, &Options{BufferSize: 3 * record})
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		payload := rankPayload(c.Rank(), int(2*chunk))
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(f, got); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("rank %d: buffered sequential read mismatch", c.Rank())
		}
		// Seek back into the middle of block 0 and re-read across the
		// chunk boundary; the cursor semantics must match the metadata.
		if err := f.Seek(0, chunk-int64(record)); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		span := make([]byte, 2*record)
		if _, err := io.ReadFull(f, span); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if want := payload[chunk-int64(record) : chunk+int64(record)]; !bytes.Equal(span, want) {
			t.Errorf("rank %d: post-Seek read mismatch", c.Rank())
		}
		probe := make([]byte, 999)
		if _, err := f.ReadLogicalAt(probe, 777); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		} else if !bytes.Equal(probe, payload[777:777+999]) {
			t.Errorf("rank %d: buffered ReadLogicalAt mismatch", c.Rank())
		}
	})

	// Request reduction on the simulated backend.
	reads := func(bufSize int64) int64 {
		fs := runSim(t, n, func(c *mpi.Comm, v fsio.FileSystem) {
			f, err := ParOpen(c, v, "ra.sion", WriteMode, &Options{ChunkSize: chunk})
			if err != nil {
				panic(err)
			}
			f.WriteSynthetic(2 * chunk)
			f.Close()
		})
		before, _ := fs.Stats("ra.sion")
		runSimOn(t, fs, n, func(c *mpi.Comm, v fsio.FileSystem) {
			var opts *Options
			if bufSize != 0 {
				opts = &Options{BufferSize: bufSize}
			}
			f, err := ParOpen(c, v, "ra.sion", ReadMode, opts)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, record)
			for i := 0; i < 2*nrec; i++ {
				if _, err := f.Read(buf); err != nil {
					panic(err)
				}
			}
			f.Close()
		})
		after, _ := fs.Stats("ra.sion")
		return after.ReadRequests - before.ReadRequests
	}
	direct := reads(0)
	buffered := reads(BufferAuto)
	if buffered*10 > direct {
		t.Errorf("buffered read requests %d not ≥10× below direct %d", buffered, direct)
	}
}

// TestWriteSyntheticFlushesStage interleaves buffered Writes with
// WriteSynthetic and checks the final content: the staged bytes must land
// at their original offsets (before the synthetic region), not after it.
func TestWriteSyntheticFlushesStage(t *testing.T) {
	const chunk = int64(4096)
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "syn.sion", WriteMode, &Options{
			ChunkSize: chunk, BufferSize: 1024,
		})
		if err != nil {
			t.Error(err)
			return
		}
		head := rankPayload(c.Rank(), 300)
		tail := rankPayload(c.Rank()+100, 200)
		if _, err := f.Write(head); err != nil {
			t.Error(err)
		}
		if err := f.WriteSynthetic(500); err != nil {
			t.Error(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	for r := 0; r < 2; r++ {
		f, err := OpenRank(fsys, "syn.sion", r)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append(append([]byte{}, rankPayload(r, 300)...), make([]byte, 500)...), rankPayload(r+100, 200)...)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(f, got); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d: WriteSynthetic interleaving corrupted the stream", r)
		}
		f.Close()
	}
}

// TestSerialBufferedRoundTrip drives the serial handle through buffered
// writes with Seek interleaving (cursor hops between ranks) and buffered
// reads, asserting byte-identity with an unbuffered serial write.
func TestSerialBufferedRoundTrip(t *testing.T) {
	const ntasks = 3
	chunks := []int64{300, 500, 400}
	payloads := make([][]byte, ntasks)
	for r := range payloads {
		payloads[r] = rankPayload(r, 900+100*r)
	}
	write := func(fsys fsio.FileSystem, bufSize int64) {
		sf, err := Create(fsys, "s.sion", chunks, &Options{FSBlockSize: 128, BufferSize: bufSize})
		if err != nil {
			t.Fatal(err)
		}
		// Interleave: write each task's payload in pieces, round-robin,
		// so every piece forces a Seek away and back.
		offs := make([]int, ntasks)
		for done := 0; done < ntasks; {
			done = 0
			for r := 0; r < ntasks; r++ {
				if offs[r] >= len(payloads[r]) {
					done++
					continue
				}
				end := offs[r] + 111
				if end > len(payloads[r]) {
					end = len(payloads[r])
				}
				capr := alignUp(chunks[r], 128)
				block := int64(offs[r]) / capr
				pos := int64(offs[r]) % capr
				if err := sf.Seek(r, int(block), pos); err != nil {
					t.Fatal(err)
				}
				if _, err := sf.Write(payloads[r][offs[r]:end]); err != nil {
					t.Fatal(err)
				}
				offs[r] = end
			}
		}
		if err := sf.Close(); err != nil {
			t.Fatal(err)
		}
	}
	plain := fsio.NewOS(t.TempDir())
	write(plain, 0)
	for _, bs := range []int64{33, BufferAuto} {
		buffered := fsio.NewOS(t.TempDir())
		write(buffered, bs)
		// Compare the two trees' physical files byte-for-byte.
		for k := 0; k < 1; k++ {
			a, err := plain.Open(fileName("s.sion", k))
			if err != nil {
				t.Fatal(err)
			}
			b, err := buffered.Open(fileName("s.sion", k))
			if err != nil {
				t.Fatal(err)
			}
			as, _ := a.Size()
			bs2, _ := b.Size()
			if as != bs2 {
				t.Fatalf("buffer %d: sizes differ: %d vs %d", bs, as, bs2)
			}
			ab := make([]byte, as)
			bb := make([]byte, bs2)
			a.ReadAt(ab, 0)
			b.ReadAt(bb, 0)
			if !bytes.Equal(ab, bb) {
				t.Errorf("buffer %d: serial multifile not byte-identical", bs)
			}
			a.Close()
			b.Close()
		}
		// Buffered read-back through the serial global view.
		sf, err := Open(buffered, "s.sion")
		if err != nil {
			t.Fatal(err)
		}
		if err := stageAll(sf, BufferAuto); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ntasks; r++ {
			got, err := sf.ReadRank(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payloads[r]) {
				t.Errorf("buffer %d: rank %d buffered serial read mismatch", bs, r)
			}
		}
		sf.Close()
	}
}

// TestSetBufferSizeValidation covers restaging a write handle and the
// size BufferAuto resolves to; TestBufferValueParity covers the values.
func TestSetBufferSizeValidation(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "v.sion", WriteMode, &Options{ChunkSize: 512})
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.SetBufferSize(64); err != nil {
			t.Error(err)
		}
		if _, err := f.Write(make([]byte, 100)); err != nil {
			t.Error(err)
		}
		if err := f.SetBufferSize(BufferOff); err != nil { // flushes and disables
			t.Error(err)
		}
		if f.wstage != nil {
			t.Error("BufferOff left a write stage armed")
		}
		f.Close()
	})
	// BufferAuto sizes the stage to the chunk, in whole FS blocks, up to
	// bufferAutoCap.
	for _, c := range []struct{ capacity, want int64 }{{100, 4096}, {5000, 8192}, {64 << 20, bufferAutoCap}} {
		if got := resolveBufferSize(BufferAuto, c.capacity, 4096); got != c.want {
			t.Errorf("BufferAuto for a %d-byte chunk: %d, want %d", c.capacity, got, c.want)
		}
	}
}

// TestKeyReaderRespectsStagingOptOut: SetBufferSize(BufferOff) must keep
// NewKeyReader from arming its automatic read-ahead, while the default
// (no call) arms it.
func TestKeyReaderRespectsStagingOptOut(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(1, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "k.sion", WriteMode, &Options{ChunkSize: 1024})
		if err != nil {
			t.Error(err)
			return
		}
		w, _ := NewKeyWriter(f)
		w.WriteKey(7, []byte("payload"))
		f.Close()
	})
	open := func(optOut bool) *File {
		f, err := OpenRank(fsys, "k.sion", 0)
		if err != nil {
			t.Fatal(err)
		}
		if optOut {
			if err := f.SetBufferSize(BufferOff); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := NewKeyReader(f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := open(false)
	if f.rstage == nil {
		t.Error("NewKeyReader did not arm read-ahead by default")
	}
	f.Close()
	f = open(true)
	if f.rstage != nil {
		t.Error("NewKeyReader overrode a BufferOff opt-out")
	}
	f.Close()
}

// TestBufferValueParity: Options.BufferSize at ParOpen and SetBufferSize
// on an OpenRank handle take the same values through one validator. Each
// value gives the same read stage, the same opt-out or the same error on
// both, on posix and on the object store (where 0 means BufferAuto).
func TestBufferValueParity(t *testing.T) {
	const fsblk, chunk = 256, 1000
	dir := t.TempDir()
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsio.NewOS(dir), "p.sion", WriteMode, &Options{ChunkSize: chunk, FSBlockSize: fsblk})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), 3*chunk))
		f.Close()
	})
	obj := simfs.NewObjStore(simfs.ObjProfile{})
	auto := alignUp(chunk, fsblk)
	for _, be := range []struct {
		label string
		fsys  fsio.FileSystem
		zero  int64 // the stage 0 resolves to
	}{
		{"posix", fsio.NewOS(dir), 0},
		{"objstore", obj.Wrap(fsio.NewOS(dir), nil), auto},
	} {
		for _, v := range []struct {
			n     int64
			stage int64 // -1: an error
			off   bool
		}{{0, be.zero, false}, {64, 64, false}, {BufferAuto, auto, false}, {BufferOff, 0, true}, {-3, -1, false}} {
			type outcome struct {
				stage int64
				off   bool
			}
			state := func(f *File, err error) outcome {
				if err != nil {
					return outcome{stage: -1}
				}
				o := outcome{off: f.stagingOff}
				if f.rstage != nil {
					o.stage = f.rstage.size
				}
				return o
			}
			var opened outcome
			mpi.Run(2, func(c *mpi.Comm) {
				f, err := ParOpen(c, be.fsys, "p.sion", ReadMode, &Options{BufferSize: v.n})
				if c.Rank() == 1 {
					opened = state(f, err)
				}
				if err == nil {
					f.Close()
				}
			})
			h, err := OpenRank(be.fsys, "p.sion", 1)
			if err != nil {
				t.Fatal(err)
			}
			set := state(h, h.SetBufferSize(v.n))
			h.Close()
			if want := (outcome{v.stage, v.off}); opened != want || set != want {
				t.Errorf("%s BufferSize %d: ParOpen %+v, SetBufferSize %+v, want %+v", be.label, v.n, opened, set, want)
			}
		}
	}
}

// cutFS wraps a FileSystem; once cut is set, no file it opened delivers a
// byte at or beyond that file offset: reads reaching it come back short
// with io.EOF, as from a truncated or sparse-tailed file.
type cutFS struct {
	fsio.FileSystem
	cut int64
}

type cutFile struct {
	fsio.File
	fs *cutFS
}

func (f *cutFS) Open(name string) (fsio.File, error) {
	fh, err := f.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return &cutFile{File: fh, fs: f}, nil
}

func (f *cutFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.cut == 0 || off+int64(len(p)) <= f.fs.cut {
		return f.File.ReadAt(p, off)
	}
	n, err := f.File.ReadAt(p[:max(f.fs.cut-off, 0)], off)
	if err == nil {
		err = io.EOF
	}
	return n, err
}

// TestShortReadZeroFills pins the one short-read rule of the three read
// paths (unbuffered, staged, direct past the stage): bytes the backend did
// not deliver read as zeros — not as whatever the caller's buffer held —
// and the call reports the full count, through Read, ReadLogicalAt, a
// mapped rank handle and TailLayout.ReadRankAt alike.
func TestShortReadZeroFills(t *testing.T) {
	const fsblk, chunk, size, keep = 256, 4096, 6000, 300
	base := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := ParOpen(c, base, "cut.sion", WriteMode, &Options{ChunkSize: chunk, FSBlockSize: fsblk, Watermarks: true})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), size))
		f.Close()
	})
	direct := int(DirectReadBytes(fsio.Capabilities{}, fsblk))
	paths := []struct {
		label string
		buf   int64
		rec   int
	}{
		{"unbuffered", BufferOff, direct},
		{"staged", BufferAuto, direct/2 - 1},
		{"direct", BufferAuto, direct},
	}
	// check reads rank 1's first record with the file cut `keep` bytes into
	// the rank's first chunk (which starts at file offset data), into a
	// dirty buffer.
	check := func(label string, cfs *cutFS, data int64, rec int, read func(p []byte) (int, error)) {
		t.Helper()
		want := make([]byte, rec)
		copy(want, rankPayload(1, size)[:keep])
		got := bytes.Repeat([]byte{0xAA}, rec)
		cfs.cut = data + keep
		n, err := read(got)
		cfs.cut = 0
		if n != rec || err != nil {
			t.Errorf("%s: read = (%d, %v), want (%d, nil)", label, n, err, rec)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: undelivered tail is not zero-filled (byte %d = %#x)", label, keep, got[keep])
		}
	}
	for _, p := range paths {
		cfs := &cutFS{FileSystem: base}
		h, err := OpenRank(cfs, "cut.sion", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.SetBufferSize(p.buf); err != nil {
			t.Fatal(err)
		}
		data := h.geo.dataOff(geoIndex, 0)
		check(p.label+"/ReadLogicalAt", cfs, data, p.rec, func(b []byte) (int, error) { return h.ReadLogicalAt(b, 0) })
		h.releaseStage() // the probe above may have staged the region whole
		check(p.label+"/Read", cfs, data, p.rec, h.Read)
		h.Close()

		mpi.Run(1, func(c *mpi.Comm) {
			mf, err := ParOpenMapped(c, cfs, "cut.sion", ReadMode, nil, &Options{BufferSize: p.buf})
			if err != nil {
				t.Error(err)
				return
			}
			defer mf.Close()
			mh, err := mf.Rank(1)
			if err != nil {
				t.Error(err)
				return
			}
			check(p.label+"/mapped", cfs, data, p.rec, mh.Read)
		})
	}

	cfs := &cutFS{FileSystem: base}
	tl, err := LoadTailLayout(cfs, "cut.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	ext := tl.Layout().RankBlocks(1)
	check("tail/ReadRankAt", cfs, ext[0].Off, direct, func(b []byte) (int, error) { return tl.ReadRankAt(1, b, 0) })
}

// modelReads replays a sequential read of the given blocks, one Read per
// record, the record sizes taken from recs in turn, against the
// read-ahead rule of a handle with the given stage and DirectReadBytes —
// a covered piece costs nothing; a miss of at least min(direct, stage)
// bytes, or (byStream) any miss once the stream's calls so far, this one
// included, average half of direct, is one read of its own size; any
// other miss fetches the rest of its chunk up to the stage size — and
// returns the backend reads and bytes the rule must issue. Without
// byStream it is the rule as it was before the stream counted; with
// direct = stage too, the rule as it was before DirectReadBytes.
func modelReads(blocks []int64, recs []int64, stage, direct int64, byStream bool) (calls, nbytes int64) {
	cb, cs, cl := -1, int64(0), int64(0)
	left, nrec, asked := int64(0), int64(0), int64(0)
	for b, used := range blocks {
		for pos := int64(0); pos < used; {
			if left == 0 {
				left = recs[nrec%int64(len(recs))]
				nrec, asked = nrec+1, asked+left
			}
			n := min(left, used-pos)
			switch {
			case b == cb && pos >= cs && pos+n <= cs+cl:
			case n >= min(direct, stage) || byStream && 2*asked >= nrec*direct:
				calls, nbytes = calls+1, nbytes+n
			default:
				cb, cs, cl = b, pos, min(stage, used-pos)
				calls, nbytes = calls+1, nbytes+cl
			}
			pos, left = pos+n, left-n
		}
	}
	return calls, nbytes
}

// pinFile writes one rank of nblocks full chunks through fsys and opens
// it with a BufferAuto stage (one chunk).
func pinFile(t *testing.T, fsys fsio.FileSystem, fsblk, chunk, nblocks int64) *File {
	t.Helper()
	mpi.Run(1, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "pin.sion", WriteMode, &Options{ChunkSize: chunk, FSBlockSize: fsblk, BufferSize: BufferOff})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(0, int(nblocks*chunk)))
		f.Close()
	})
	h, err := OpenRank(fsys, "pin.sion", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetBufferSize(BufferAuto); err != nil {
		t.Fatal(err)
	}
	return h
}

// meteredOS is an fsio.OS over a fresh directory under an fsio.Meter,
// with the meter's read-call and read-byte counters.
func meteredOS(t *testing.T, wrap func(fsio.FileSystem) fsio.FileSystem) (fsys fsio.FileSystem, reads, readBytes *obs.Counter) {
	reg := obs.NewRegistry()
	fsys = fsio.Instrument(wrap(fsio.NewOS(t.TempDir())), fsio.NewMeter(reg, "pin"))
	reads = reg.Counter("fsio_ops_total", "", obs.L("backend", "pin", "op", "read")...)
	readBytes = reg.Counter("fsio_bytes_total", "", obs.L("backend", "pin", "op", "read")...)
	return fsys, reads, readBytes
}

// TestDirectReadRequestPins pins the requests the read-ahead rule issues,
// counted by an fsio.Meter under the handle, for streams of one record
// size: records of DirectReadBytes are one backend read each and not a
// byte of read-ahead, and so is every piece of a stream whose records are
// half that or more (two FS blocks on POSIX); smaller records cost one
// read per chunk region, as they did before the rule; and on a backend
// that names its own preferred request size (the object store) the
// request stream is what it was before for every record size.
func TestDirectReadRequestPins(t *testing.T) {
	const fsblk, chunk, nblocks = 256, 8192, 3
	direct := DirectReadBytes(fsio.Capabilities{}, fsblk)
	obj := simfs.NewObjStore(simfs.ObjProfile{})
	// The os rows' backend reads; every row reads the 24 576 bytes once.
	osReads := map[int64]int64{direct: 24, direct - 1: 27, direct + 1: 26, 1: 3, 100: 3, chunk: 3, chunk + 1: 5}
	for _, be := range []struct {
		label  string
		wrap   func(fsio.FileSystem) fsio.FileSystem
		direct int64 // the bar the rule should be using for a one-chunk stage
	}{
		{"os", func(fs fsio.FileSystem) fsio.FileSystem { return fs }, direct},
		{"objstore", func(fs fsio.FileSystem) fsio.FileSystem { return obj.Wrap(fs, nil) }, chunk},
	} {
		fsys, reads, readBytes := meteredOS(t, be.wrap)
		h := pinFile(t, fsys, fsblk, chunk, nblocks)
		stage := h.rstage.size
		if got := min(h.directRead, stage); got != be.direct {
			t.Errorf("%s: direct-read bar = %d, want %d", be.label, got, be.direct)
		}
		buf := make([]byte, chunk+1)
		for _, rec := range []int64{direct, direct - 1, direct + 1, 1, 100, chunk, chunk + 1} {
			h.releaseStage()
			if err := h.Seek(0, 0); err != nil {
				t.Fatal(err)
			}
			calls0, bytes0 := reads.Value(), readBytes.Value()
			var delivered int64
			for !h.EOF() {
				n, err := h.Read(buf[:rec])
				if err != nil {
					t.Fatalf("%s rec=%d: %v", be.label, rec, err)
				}
				delivered += int64(n)
			}
			calls, nbytes := reads.Value()-calls0, readBytes.Value()-bytes0
			wantCalls, wantBytes := modelReads(h.readBytes, []int64{rec}, stage, h.directRead, true)
			if calls != wantCalls || nbytes != wantBytes {
				t.Errorf("%s rec=%d: %d reads of %d bytes, want %d of %d", be.label, rec, calls, nbytes, wantCalls, wantBytes)
			}
			if be.label == "os" && (calls != osReads[rec] || nbytes != delivered) {
				t.Errorf("%s rec=%d: %d reads of %d bytes, pinned at %d of %d", be.label, rec, calls, nbytes, osReads[rec], delivered)
			}
			if 2*rec < h.directRead {
				if c, n := modelReads(h.readBytes, []int64{rec}, stage, stage, false); calls != c || nbytes != n {
					t.Errorf("%s rec=%d: %d reads of %d bytes, was %d of %d before the rule", be.label, rec, calls, nbytes, c, n)
				}
			}
		}
		h.Close()
	}
}

// TestMixedStreamRequestPins pins the stream half of the rule on one
// stream, counted by an fsio.Meter: a stream that opens with a small
// record stages its first chunk whole, and once its calls average half of
// DirectReadBytes even its small pieces are read where they are going;
// a Seek starts a new stream, and ReadLogicalAt calls count in it as
// Reads do.
func TestMixedStreamRequestPins(t *testing.T) {
	const fsblk, chunk, nblocks = 256, 8192, 3 // DirectReadBytes 1024
	fsys, reads, readBytes := meteredOS(t, func(fs fsio.FileSystem) fsio.FileSystem { return fs })
	h := pinFile(t, fsys, fsblk, chunk, nblocks)
	defer h.Close()
	payload := rankPayload(0, nblocks*chunk)
	step := func(label string, wantCalls, wantBytes int64, read func() error) {
		t.Helper()
		calls0, bytes0 := reads.Value(), readBytes.Value()
		if err := read(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if calls, nbytes := reads.Value()-calls0, readBytes.Value()-bytes0; calls != wantCalls || nbytes != wantBytes {
			t.Errorf("%s: %d reads of %d bytes, want %d of %d", label, calls, nbytes, wantCalls, wantBytes)
		}
	}
	// 64 B, then 2 KiB records to the end: the first record stages block 0
	// whole; the rest of block 0 is served from the stage; the 64 B piece
	// that opens block 1 and every piece after it is read directly (mean at
	// least 512), five per block.
	recs := []int64{64, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048}
	got := make([]byte, len(payload))
	step("mixed Read", 11, nblocks*chunk, func() error {
		for i, off := 0, int64(0); !h.EOF(); i++ {
			n, err := h.Read(got[off:min(off+recs[min(i, len(recs)-1)], int64(len(got)))])
			if err != nil {
				return err
			}
			off += int64(n)
		}
		return nil
	})
	if !bytes.Equal(got, payload) {
		t.Error("mixed Read: bytes differ")
	}
	if want, _ := modelReads(h.readBytes, recs, chunk, 1024, true); want != 11 {
		t.Errorf("model: %d reads, want 11", want)
	}
	if c, _ := modelReads(h.readBytes, recs, chunk, 1024, false); c != 3 {
		t.Errorf("model without the stream: %d reads, want 3 (one stage fill per block)", c)
	}
	// A Seek starts a new stream: 64 B stage block 1 from its start.
	p := make([]byte, 2048)
	step("Read after Seek", 1, chunk, func() error {
		if err := h.Seek(1, 0); err != nil {
			return err
		}
		_, err := h.Read(p[:64])
		return err
	})
	// ReadLogicalAt counts in the stream: after 2 KiB (direct, at least
	// the bar) a 100 B miss is read directly, since (64+2048+100)/3 ≥ 512.
	step("ReadLogicalAt", 2, 2148, func() error {
		if _, err := h.ReadLogicalAt(p, 2*chunk); err != nil {
			return err
		}
		_, err := h.ReadLogicalAt(p[:100], 2*chunk+4096)
		return err
	})
	if !bytes.Equal(p[:100], payload[2*chunk+4096:2*chunk+4196]) {
		t.Error("ReadLogicalAt: bytes differ")
	}
}

// TestCoveredReadDoesNotAllocate: a Read the stage covers is a bounds
// check and a copy.
func TestCoveredReadDoesNotAllocate(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(1, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "a.sion", WriteMode, &Options{ChunkSize: 4096, FSBlockSize: 256})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(0, 4096))
		f.Close()
	})
	h, err := OpenRank(fsys, "a.sion", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.SetBufferSize(BufferAuto); err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 64)
	if _, err := h.Read(rec); err != nil { // the miss that fills the stage
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if n, err := h.Read(rec); n != len(rec) || err != nil {
			t.Fatalf("covered Read = (%d, %v)", n, err)
		}
	}); allocs != 0 {
		t.Errorf("covered Read allocates %v times", allocs)
	}
}

// TestSmallWriteDoesNotAllocate: on the two write paths that coalesce
// small records, taking one is an append to memory the handle already
// owns — the write-behind stage of a direct handle, and the staging pair
// of an async-collective member once both halves have carried a quantum.
// (Simulated ranks run one at a time, so nothing else allocates meanwhile.)
func TestSmallWriteDoesNotAllocate(t *testing.T) {
	const chunk, quantum = 1 << 20, 16 << 10
	rec := make([]byte, 64)
	measure := func(label string, f *File) {
		if allocs := testing.AllocsPerRun(50, func() {
			if n, err := f.Write(rec); n != len(rec) || err != nil {
				t.Errorf("%s: Write = (%d, %v)", label, n, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: a %d-byte Write allocates %v times", label, len(rec), allocs)
		}
	}
	runSim(t, 2, func(c *mpi.Comm, fsys fsio.FileSystem) {
		f, err := ParOpen(c, fsys, "staged.sion", WriteMode, &Options{ChunkSize: chunk, BufferSize: BufferAuto})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 1 {
			measure("staged", f)
		}
		f.Close()

		f, err = ParOpen(c, fsys, "async.sion", WriteMode, &Options{ // flush unit = half a chunk
			ChunkSize: 2 * quantum, FSBlockSize: 4 << 10, CollectorGroup: 2, AsyncCollective: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 1 { // rank 0 collects
			if _, err := f.Write(make([]byte, 2*quantum)); err != nil {
				t.Error(err)
			}
			measure("async-collective member", f)
		}
		f.Close()
	})
}
