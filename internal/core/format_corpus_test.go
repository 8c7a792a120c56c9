package sion

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
)

// The format corpus freezes the on-disk bytes of small multifiles written
// by every writer in the package, so a change to a write path that moves a
// single byte fails TestFormatCorpus. Each case lives in
// testdata/format/<case>/ with every file the write leaves behind
// (segments and watermark sidecars). zlib streams are not in the corpus:
// their bytes belong to compress/zlib, not to this package.
//
// After reviewing why a file changed, `go test ./internal/core -run
// TestFormatCorpus -update` rewrites the corpus from this run.
var update = flag.Bool("update", false, "rewrite testdata/format from this run instead of comparing against it")

// corpusFSBlock is the FS block size of every corpus multifile: small, so
// that a few hundred bytes span several blocks.
const corpusFSBlock = 64

// corpusName is the multifile name inside every case directory.
const corpusName = "m.sion"

// serialCorpusChunks are the chunk sizes of the serial cases: one chunk
// below an FS block, one between one and two, one above two.
var serialCorpusChunks = []int64{100, 150, 40}

// serialOp is one Seek(rank, block, pos) followed by one Write of n bytes.
type serialOp struct {
	rank, block int
	pos         int64
	n           int
}

// serialPattern returns the operations of a serial corpus case; capacity
// gives each rank's chunk capacity, which the round-robin pattern needs to
// turn its logical cursor into (block, pos).
func serialPattern(name string, capacity func(rank int) int64) []serialOp {
	var ops []serialOp
	for r := range serialCorpusChunks {
		switch name {
		case "sequential":
			ops = append(ops, serialOp{r, 0, 0, 250})
		case "sparse":
			// Block 1 is never written: metablock 2 records it as 0 bytes.
			ops = append(ops, serialOp{r, 0, 0, 20}, serialOp{r, 2, 0, 30})
		case "seekback":
			// The second write ends below the first: the block keeps 35.
			ops = append(ops, serialOp{r, 0, 0, 35}, serialOp{r, 0, 10, 5})
		case "revisit":
			// Block 0 is extended after block 1 was started.
			ops = append(ops, serialOp{r, 0, 0, 10}, serialOp{r, 1, 0, 30}, serialOp{r, 0, 10, 25}, serialOp{r, 0, 3, 4})
		}
	}
	if name == "roundrobin" {
		// Three rounds of 111-byte pieces, each appended at its rank's
		// logical end.
		end := make([]int64, len(serialCorpusChunks))
		for round := 0; round < 3; round++ {
			for r := range serialCorpusChunks {
				c := capacity(r)
				ops = append(ops, serialOp{r, int(end[r] / c), end[r] % c, 111})
				end[r] += 111
			}
		}
	}
	return ops
}

var serialPatterns = []string{"sequential", "sparse", "seekback", "revisit", "roundrobin"}

// opPayload is the deterministic content of operation i.
func opPayload(i, n int) []byte { return rankPayload(1000+i, n) }

// serialModel applies ops to per-rank blocks with high-water semantics and
// returns each rank's logical file: every block up to its highest written
// byte, unwritten bytes and untouched blocks as zeros.
func serialModel(ops []serialOp, capacity func(rank int) int64) [][]byte {
	blocks := make([][][]byte, len(serialCorpusChunks))
	for i, op := range ops {
		c := capacity(op.rank)
		b, pos, p := op.block, op.pos, opPayload(i, op.n)
		for len(p) > 0 {
			if pos == c {
				b, pos = b+1, 0
			}
			for len(blocks[op.rank]) <= b {
				blocks[op.rank] = append(blocks[op.rank], nil)
			}
			w := min(int64(len(p)), c-pos)
			blk := blocks[op.rank][b]
			if need := pos + w; int64(len(blk)) < need {
				blk = append(blk, make([]byte, need-int64(len(blk)))...)
			}
			copy(blk[pos:], p[:w])
			blocks[op.rank][b] = blk
			pos += w
			p = p[w:]
		}
	}
	out := make([][]byte, len(blocks))
	for r, bb := range blocks {
		for _, blk := range bb {
			out[r] = append(out[r], blk...)
		}
	}
	return out
}

// writeSerialCase writes ops through Create into dir.
func writeSerialCase(dir string, ops []serialOp, nfiles int, hdrs bool, bufSize int64) error {
	sf, err := Create(fsio.NewOS(dir), corpusName, serialCorpusChunks, &Options{
		FSBlockSize: corpusFSBlock, NFiles: nfiles, ChunkHeaders: hdrs, BufferSize: bufSize,
	})
	if err != nil {
		return err
	}
	for i, op := range ops {
		if err := sf.Seek(op.rank, op.block, op.pos); err != nil {
			return err
		}
		if _, err := sf.Write(opPayload(i, op.n)); err != nil {
			return err
		}
	}
	return sf.Close()
}

// parCorpusRanks is the task count of the parallel cases.
const parCorpusRanks = 4

// parChunk is rank r's chunk size in the parallel cases.
func parChunk(r int) int64 { return 50 + 30*int64(r) }

// parRecord is the content of rank r's record i in the parallel cases:
// sizes vary so that records straddle chunk and FS block boundaries.
func parRecord(r, i int) []byte { return rankPayload(100*r+i, 17+23*i+5*r) }

const parRecords = 6

// parKey is the key of rank r's record i in the key-value case.
func parKey(r, i int) uint64 { return uint64(i%3 + 10*r) }

// parExpected is rank r's logical file in a parallel case.
func parExpected(kv bool, r int) []byte {
	var out []byte
	for i := 0; i < parRecords; i++ {
		p := parRecord(r, i)
		if kv {
			out = append(out, keyRecMagic...)
			out = binary.LittleEndian.AppendUint64(out, parKey(r, i))
			out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
		}
		out = append(out, p...)
	}
	return out
}

// parCase is a multifile written collectively by parCorpusRanks tasks.
// coll marks the cases the collective variants apply to: collectors
// cannot write chunk headers, and a watermark sidecar records who
// committed when (a synchronous collective Flush commits nothing).
type parCase struct {
	name      string
	nfiles    int
	hdrs, wmk bool
	kv, coll  bool
}

var parCases = []parCase{
	{name: "par-direct", nfiles: 2, coll: true},
	{name: "par-headers", nfiles: 1, hdrs: true},
	{name: "par-watermarks", nfiles: 2, wmk: true},
	{name: "par-keyval", nfiles: 1, kv: true, coll: true},
}

// parVariants are the write modes that must produce the direct files byte
// for byte.
var parVariants = []struct {
	name string
	coll bool
	set  func(o *Options)
}{
	{"auto-buffer", false, func(o *Options) { o.BufferSize = BufferAuto }},
	{"collector-2", true, func(o *Options) { o.CollectorGroup = 2 }},
	{"async-collector-2", true, func(o *Options) { o.CollectorGroup, o.AsyncCollective = 2, true }},
}

// writeParCase writes pc into dir; variant adjusts the options (nil for
// the direct write). The watermarked case flushes halfway, so its sidecars
// hold an open-block commit as well as the sealed ones.
func writeParCase(dir string, pc parCase, variant func(*Options)) error {
	fsys := fsio.NewOS(dir)
	errs := make([]error, parCorpusRanks)
	mpi.Run(parCorpusRanks, func(c *mpi.Comm) {
		r := c.Rank()
		o := &Options{ChunkSize: parChunk(r), FSBlockSize: corpusFSBlock, NFiles: pc.nfiles, ChunkHeaders: pc.hdrs, Watermarks: pc.wmk}
		if variant != nil {
			variant(o)
		}
		f, err := ParOpen(c, fsys, corpusName, WriteMode, o)
		if err != nil {
			errs[r] = err
			return
		}
		var kw *KeyWriter
		if pc.kv {
			kw, _ = NewKeyWriter(f)
		}
		for i := 0; i < parRecords && errs[r] == nil; i++ {
			if kw != nil {
				errs[r] = kw.WriteKey(parKey(r, i), parRecord(r, i))
			} else {
				_, errs[r] = f.Write(parRecord(r, i))
			}
			if pc.wmk && i == parRecords/2 && errs[r] == nil {
				errs[r] = f.Flush()
			}
		}
		if err := f.Close(); errs[r] == nil {
			errs[r] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// corpusFiles reads every file of a case directory, by name.
func corpusFiles(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = b
	}
	return out, nil
}

// checkCorpusCase compares the files written into dir with the committed
// case (or, under -update with label "", replaces the committed case).
func checkCorpusCase(t *testing.T, name, label, dir string) {
	t.Helper()
	ref := filepath.Join("testdata", "format", name)
	got, err := corpusFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if *update && label == "" {
		if err := os.RemoveAll(ref); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(ref, 0o755); err != nil {
			t.Fatal(err)
		}
		for f, b := range got {
			if err := os.WriteFile(filepath.Join(ref, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want, err := corpusFiles(ref)
	if err != nil {
		t.Fatalf("%v (a case without committed files is unchecked; create it with -update)", err)
	}
	for f, w := range want {
		g, ok := got[f]
		switch {
		case !ok:
			t.Errorf("%s %s: %s not written", name, label, f)
		case !bytes.Equal(g, w):
			t.Errorf("%s %s: %s differs from the corpus at byte %d (%d bytes, want %d)", name, label, f, firstByteDiff(g, w), len(g), len(w))
		}
	}
	for f := range got {
		if _, ok := want[f]; !ok {
			t.Errorf("%s %s: wrote %s, which the corpus does not have", name, label, f)
		}
	}
}

func firstByteDiff(a, b []byte) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// checkCorpusReads reads every rank of the committed case back through
// the serial Open and ParOpen and compares it with want.
func checkCorpusReads(t *testing.T, name string, want [][]byte) {
	t.Helper()
	fsys := fsio.NewOS(filepath.Join("testdata", "format", name))
	sf, err := Open(fsys, corpusName)
	if err != nil {
		t.Fatalf("%s: Open: %v", name, err)
	}
	for r, w := range want {
		if got, err := sf.ReadRank(r); err != nil || !bytes.Equal(got, w) {
			t.Errorf("%s: serial read of rank %d: %d bytes (err %v), want %d", name, r, len(got), err, len(w))
		}
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	mpi.Run(len(want), func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, corpusName, ReadMode, nil)
		if err != nil {
			t.Errorf("%s: ParOpen rank %d: %v", name, c.Rank(), err)
			return
		}
		defer f.Close()
		if got, err := io.ReadAll(f); err != nil || !bytes.Equal(got, want[c.Rank()]) {
			t.Errorf("%s: ParOpen read of rank %d: %d bytes (err %v), want %d", name, c.Rank(), len(got), err, len(want[c.Rank()]))
		}
	})
}

// TestFormatCorpus rewrites every corpus case and requires the committed
// bytes: the serial cases also at BufferSize 33 and BufferAuto, the
// parallel ones also under BufferAuto, CollectorGroup 2 and the async
// collective. Every committed multifile then reads back through both read
// opens.
func TestFormatCorpus(t *testing.T) {
	for _, pat := range serialPatterns {
		for _, nfiles := range []int{1, 2} {
			for _, hdrs := range []bool{false, true} {
				name := fmt.Sprintf("serial-%s-f%d", pat, nfiles)
				if hdrs {
					name += "-headers"
				}
				t.Run(name, func(t *testing.T) {
					// Capacities come from the geometry the write would use;
					// a zero-op Create records them.
					probe := t.TempDir()
					if err := writeSerialCase(probe, nil, nfiles, hdrs, 0); err != nil {
						t.Fatal(err)
					}
					ps, err := Open(fsio.NewOS(probe), corpusName)
					if err != nil {
						t.Fatal(err)
					}
					capacity := func(r int) int64 { return ps.handles[r].ChunkCapacity() }
					ops := serialPattern(pat, capacity)
					want := serialModel(ops, capacity)
					ps.Close()
					for _, buf := range []int64{0, 33, BufferAuto} {
						dir := t.TempDir()
						if err := writeSerialCase(dir, ops, nfiles, hdrs, buf); err != nil {
							t.Fatalf("BufferSize %d: %v", buf, err)
						}
						label := ""
						if buf != 0 {
							label = fmt.Sprintf("(BufferSize %d)", buf)
						}
						checkCorpusCase(t, name, label, dir)
					}
					checkCorpusReads(t, name, want)
				})
			}
		}
	}
	want := func(kv bool) [][]byte {
		out := make([][]byte, parCorpusRanks)
		for r := range out {
			out[r] = parExpected(kv, r)
		}
		return out
	}
	for _, pc := range parCases {
		t.Run(pc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeParCase(dir, pc, nil); err != nil {
				t.Fatal(err)
			}
			checkCorpusCase(t, pc.name, "", dir)
			for _, v := range parVariants {
				if v.coll && !pc.coll {
					continue
				}
				dir := t.TempDir()
				if err := writeParCase(dir, pc, v.set); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				checkCorpusCase(t, pc.name, "("+v.name+")", dir)
			}
			checkCorpusReads(t, pc.name, want(pc.kv))
		})
	}
	// Defrag rewrites a parallel case through the serial writer.
	for _, src := range []string{"par-direct", "par-headers"} {
		name := "defrag-" + src
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := Defrag(fsio.NewOS(filepath.Join("testdata", "format", src)), corpusName, fsio.NewOS(dir), corpusName); err != nil {
				t.Fatal(err)
			}
			checkCorpusCase(t, name, "", dir)
			checkCorpusReads(t, name, want(false))
		})
	}
}
