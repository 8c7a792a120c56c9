package fsio_test

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/simfs"
)

// poisoned returns buffers of the given lengths filled with 0xAA, so bytes
// a read leaves alone show.
func poisoned(lens []int) [][]byte {
	bufs := make([][]byte, len(lens))
	for i, n := range lens {
		bufs[i] = bytes.Repeat([]byte{0xAA}, n)
	}
	return bufs
}

// TestReadvAtMatchesReadAt: on a vectored backend (fsio.OS, preadv on
// Linux) and a non-vectored one (simfs, the copying fallback), one ReadvAt
// returns the n, the error and the bytes of one ReadAt of the buffers laid
// end to end.
func TestReadvAtMatchesReadAt(t *testing.T) {
	const size = 10000
	payload := make([]byte, size)
	rand.New(rand.NewSource(27)).Read(payload)
	many := make([]int, 1500) // more than IOV_MAX, one in seven empty
	for i := range many {
		many[i] = i % 7
	}
	cases := []struct {
		name string
		lens []int
		off  int64
	}{
		{"one buffer", []int{100}, 0},
		{"three buffers", []int{10, 0, 300}, 17},
		{"more than IOV_MAX buffers", many, 5},
		{"straddling EOF", []int{4000, 0, 4000, 3000}, 2000},
		{"past EOF", []int{10, 20}, size + 100},
		{"only empty buffers", []int{0, 0}, 100},
	}
	backends := map[string]fsio.FileSystem{
		"os":    fsio.NewOS(t.TempDir()),
		"simfs": simfs.New(simfs.Jugene()).View(0, nil),
	}
	for bname, fsys := range backends {
		w, err := fsys.Create("v.dat")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := fsys.Open("v.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, vectored := f.(fsio.VectorReaderAt)
		if bname == "os" && runtime.GOOS == "linux" && !vectored {
			t.Fatal("fsio.OS files have no ReadvAt on Linux")
		}
		if bname == "simfs" && vectored {
			t.Fatal("simfs files grew a ReadvAt: the fallback is no longer under test")
		}
		for _, c := range cases {
			t.Run(bname+"/"+c.name, func(t *testing.T) {
				bufs := poisoned(c.lens)
				n, err := fsio.ReadvAt(f, bufs, c.off)
				want := bytes.Join(poisoned(c.lens), nil)
				wn, werr := f.ReadAt(want, c.off)
				if n != wn || err != werr {
					t.Fatalf("ReadvAt = (%d, %v), ReadAt of the concatenation = (%d, %v)", n, err, wn, werr)
				}
				if !bytes.Equal(bytes.Join(bufs, nil), want) {
					t.Fatal("ReadvAt's buffers differ from ReadAt's bytes")
				}
			})
		}
	}
}

// TestOSReadvAtBeyond4GiB reads a sparse file past 4 GiB, where a 32-bit
// platform passes preadv a non-zero high offset word.
func TestOSReadvAtBeyond4GiB(t *testing.T) {
	f, err := fsio.NewOS(t.TempDir()).Create("sparse.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const off = 5<<30 + 3
	if _, err := f.WriteAt([]byte("far out"), off); err != nil {
		t.Skipf("the file system takes no sparse write at 5 GiB: %v", err)
	}
	bufs := poisoned([]int{3, 4, 8})
	n, err := fsio.ReadvAt(f, bufs, off-3)
	if got := bytes.Join(bufs, nil); n != 10 || err != io.EOF || string(got[:10]) != "\x00\x00\x00far out" {
		t.Fatalf("ReadvAt at 5 GiB = (%d, %v, %q)", n, err, got)
	}
}

// TestOSReadvAtFails: a read the kernel refuses — here of a directory —
// fails, whether it is one vector (a pread) or several (a preadv).
func TestOSReadvAtFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsio.NewOS(dir).Open("d")
	if err != nil {
		t.Skipf("the OS backend opens no directory: %v", err)
	}
	defer f.Close()
	for _, lens := range [][]int{{10}, {10, 20}} {
		if n, err := fsio.ReadvAt(f, poisoned(lens), 0); n != 0 || err == nil || err == io.EOF {
			t.Errorf("ReadvAt of %d vectors from a directory = (%d, %v), want an error", len(lens), n, err)
		}
	}
}

// TestInstrumentKeepsVectoredReads: a metered file forwards ReadvAt, and
// counts each call as one read op with its bytes.
func TestInstrumentKeepsVectoredReads(t *testing.T) {
	reg := obs.NewRegistry()
	fsys := fsio.Instrument(fsio.NewOS(t.TempDir()), fsio.NewMeter(reg, "os"))
	w, err := fsys.Create("v.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(bytes.Repeat([]byte("metered"), 1000), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("v.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, ok := f.(fsio.VectorReaderAt); !ok {
		t.Fatal("the metered file hides the backend's ReadvAt")
	}
	const ops, bytesRead = `fsio_ops_total{backend="os",op="read"}`, `fsio_bytes_total{backend="os",op="read"}`
	opsBefore, bytesBefore := counterValue(t, reg, ops), counterValue(t, reg, bytesRead)
	if n, err := fsio.ReadvAt(f, poisoned([]int{1000, 0, 2000, 500}), 100); n != 3500 || err != nil {
		t.Fatalf("ReadvAt = (%d, %v), want (3500, nil)", n, err)
	}
	if got := counterValue(t, reg, ops) - opsBefore; got != 1 {
		t.Errorf("one ReadvAt moved the read-op counter by %d, want 1", got)
	}
	if got := counterValue(t, reg, bytesRead) - bytesBefore; got != 3500 {
		t.Errorf("one ReadvAt moved the read-byte counter by %d, want 3500", got)
	}
}
