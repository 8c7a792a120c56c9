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
)

func TestKeyValueRoundTrip(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n = 4
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "kv.sion", WriteMode, &Options{ChunkSize: 300, FSBlockSize: 256})
		if err != nil {
			t.Error(err)
			return
		}
		kw, err := NewKeyWriter(f)
		if err != nil {
			t.Error(err)
			return
		}
		// Interleave records of 3 "thread" keys, spanning many chunks.
		for i := 0; i < 30; i++ {
			key := uint64(i % 3)
			if err := kw.WriteKey(key, []byte(fmt.Sprintf("r%d-k%d-i%02d|", c.Rank(), key, i))); err != nil {
				t.Error(err)
				return
			}
		}
		f.Close()
	})

	for rank := 0; rank < n; rank++ {
		f, err := OpenRank(fsys, "kv.sion", rank)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := NewKeyReader(f)
		if err != nil {
			t.Fatal(err)
		}
		keys := kr.Keys()
		if len(keys) != 3 || keys[0] != 0 || keys[2] != 2 {
			t.Fatalf("rank %d keys = %v", rank, keys)
		}
		for _, key := range keys {
			if len(kr.index[key]) != 10 {
				t.Fatalf("rank %d key %d: %d records", rank, key, len(kr.index[key]))
			}
			stream, err := kr.ReadKey(key)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			for i := 0; i < 30; i++ {
				if uint64(i%3) == key {
					fmt.Fprintf(&want, "r%d-k%d-i%02d|", rank, key, i)
				}
			}
			if !bytes.Equal(stream, want.Bytes()) {
				t.Fatalf("rank %d key %d stream mismatch:\n%q\n%q", rank, key, stream, want.Bytes())
			}
		}
		// Individual record access.
		rec, err := kr.Record(1, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("r%d-k1-i13|", rank); string(rec) != want {
			t.Fatalf("record = %q want %q", rec, want)
		}
		if _, err := kr.Record(1, 99); err == nil {
			t.Fatal("out-of-range record accepted")
		}
		// A failed read of a record fails the key's stream.
		if _, err := kr.On(failingStream{f}).ReadKey(1); !errors.Is(err, errReadInjected) {
			t.Fatalf("ReadKey over a failing reader: %v", err)
		}
		f.Close()
	}
}

// failingStream is a LogicalReaderAt of the wrapped stream's size whose
// every read fails with errReadInjected.
type failingStream struct{ LogicalReaderAt }

func (failingStream) ReadLogicalAt([]byte, int64) (int, error) { return 0, errReadInjected }

func TestKeyReaderRejectsUntaggedStream(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(1, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "raw.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		f.Write([]byte("not a key-value stream"))
		f.Close()
	})
	f, _ := OpenRank(fsys, "raw.sion", 0)
	defer f.Close()
	if _, err := NewKeyReader(f); err == nil {
		t.Fatal("untagged stream accepted as key-value")
	}
	// A tagged record whose length runs past the end of the stream.
	mpi.Run(1, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "over.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		hdr := make([]byte, keyRecHeader)
		copy(hdr, keyRecMagic)
		hdr[12] = 100
		f.Write(append(hdr, "ten bytes."...))
		f.Close()
	})
	g, _ := OpenRank(fsys, "over.sion", 0)
	defer g.Close()
	if _, err := NewKeyReader(g); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overrunning record: %v, want ErrCorrupt", err)
	}
}

func TestKeyWriterRequiresWriteMode(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(1, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "m.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		kw, _ := NewKeyWriter(f)
		kw.WriteKey(5, []byte("x"))
		f.Close()
		r, _ := ParOpen(c, fsys, "m.sion", ReadMode, nil)
		if _, err := NewKeyWriter(r); err == nil {
			t.Error("KeyWriter on read handle accepted")
		}
		r.Close()
	})
}

func TestReadLogicalAt(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payload := rankPayload(3, 5000)
	mpi.Run(1, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "la.sion", WriteMode, &Options{ChunkSize: 700, FSBlockSize: 512})
		f.Write(payload)
		f.Close()
	})
	f, _ := OpenRank(fsys, "la.sion", 0)
	defer f.Close()
	if f.LogicalSize() != 5000 {
		t.Fatalf("LogicalSize = %d", f.LogicalSize())
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		off := int64(rng.Intn(4900))
		n := 1 + rng.Intn(100)
		buf := make([]byte, n)
		if _, err := f.ReadLogicalAt(buf, off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		end := off + int64(n)
		if end > 5000 {
			end = 5000
		}
		if !bytes.Equal(buf[:end-off], payload[off:end]) {
			t.Fatalf("ReadLogicalAt(%d,%d) mismatch", off, n)
		}
	}
	// Past-EOF read is short with io.EOF.
	buf := make([]byte, 10)
	if n, err := f.ReadLogicalAt(buf, 4995); n != 5 || err != io.EOF {
		t.Fatalf("n=%d err=%v", n, err)
	}
	// The sequential cursor must be untouched by ReadLogicalAt.
	seq := make([]byte, 8)
	io.ReadFull(f, seq)
	if !bytes.Equal(seq, payload[:8]) {
		t.Fatal("ReadLogicalAt moved the sequential cursor")
	}
}
