package fsio

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSCreateWriteRead(t *testing.T) {
	o := NewOS(t.TempDir())
	f, err := o.Create("a.bin")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, multifile")
	if _, err := f.WriteAt(data, 10); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != int64(10+len(data)) {
		t.Fatalf("size = %d", sz)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and stat.
	if _, err := o.Stat("a.bin"); err != nil {
		t.Fatal(err)
	}
	g, err := o.Open("a.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got2 := make([]byte, len(data))
	if _, err := g.ReadAt(got2, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatalf("reopened got %q", got2)
	}
}

func TestOSNotExist(t *testing.T) {
	o := NewOS(t.TempDir())
	if _, err := o.Open("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
	if _, err := o.Stat("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat err = %v, want ErrNotExist", err)
	}
	if _, err := o.OpenRW("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("OpenRW err = %v, want ErrNotExist", err)
	}
	if _, err := o.Create("missing/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Create in a missing directory: err = %v, want ErrNotExist", err)
	}
}

// TestMapOSErr feeds mapOSErr each errno class as an *os.PathError: each
// gains its sentinel and keeps the errno; an unclassified one passes
// through unchanged.
func TestMapOSErr(t *testing.T) {
	if mapOSErr(nil) != nil {
		t.Fatal("nil error mapped to non-nil")
	}
	for _, c := range []struct {
		errno    error
		sentinel error // nil: passed through
	}{
		{fs.ErrNotExist, ErrNotExist},
		{fs.ErrExist, ErrExist},
		{syscall.ENOSPC, ErrQuota},
		{syscall.EDQUOT, ErrQuota},
		{syscall.EAGAIN, ErrTransient},
		{syscall.EINTR, ErrTransient},
		{syscall.EBUSY, ErrTransient},
		{syscall.ETIMEDOUT, ErrTransient},
		{syscall.EIO, ErrTransient},
		{syscall.EPERM, nil},
	} {
		in := &os.PathError{Op: "write", Path: "p", Err: c.errno}
		got := mapOSErr(in)
		if !errors.Is(got, c.errno) {
			t.Errorf("%v: mapped error %v lost the errno", c.errno, got)
		}
		for _, s := range []error{ErrNotExist, ErrExist, ErrQuota, ErrTransient} {
			if errors.Is(got, s) != (s == c.sentinel) {
				t.Errorf("%v: errors.Is(%v) = %v", c.errno, s, errors.Is(got, s))
			}
		}
	}
}

func TestOSBlockSizePositive(t *testing.T) {
	o := NewOS(t.TempDir())
	if bs := o.BlockSize("x"); bs <= 0 || bs%512 != 0 {
		t.Fatalf("block size = %d", bs)
	}
	// A directory that cannot be stat'ed falls back to 4096.
	if bs := NewOS(filepath.Join(t.TempDir(), "missing")).BlockSize("x"); bs != 4096 {
		t.Fatalf("block size under a missing root = %d, want 4096", bs)
	}
}

func TestOSWriteZeroAndDiscard(t *testing.T) {
	o := NewOS(t.TempDir())
	f, err := o.Create("z.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteZeroAt(3000, 5); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 3005 {
		t.Fatalf("size = %d, want 3005", sz)
	}
	n, err := f.ReadDiscardAt(5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3005 {
		t.Fatalf("discard read %d, want 3005", n)
	}
	// Beyond one zero block (1 MiB) and one discard buffer (64 KiB).
	const big = 1<<20 + 1<<16 + 7
	if err := f.WriteZeroAt(big, 3005); err != nil {
		t.Fatal(err)
	}
	if n, err := f.ReadDiscardAt(big, 3005); err != nil || n != big {
		t.Fatalf("discard read %d, %v; want %d", n, err, big)
	}
	// Content really is zeros.
	b := make([]byte, 10)
	if _, err := f.ReadAt(b, 100); err != nil {
		t.Fatal(err)
	}
	for _, c := range b {
		if c != 0 {
			t.Fatalf("non-zero byte in zero region: %v", b)
		}
	}
}

// TestOSHandleErrors: a write through a read-only handle and every call
// on a closed handle return the OS error.
func TestOSHandleErrors(t *testing.T) {
	o := NewOS(t.TempDir())
	f, err := o.Create("e.bin")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := o.Open("e.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteZeroAt(10, 0); err == nil {
		t.Error("WriteZeroAt through a read-only handle succeeded")
	}
	r.Close()
	if _, err := r.Size(); err == nil {
		t.Error("Size of a closed handle succeeded")
	}
	if _, err := r.ReadDiscardAt(10, 0); err == nil {
		t.Error("ReadDiscardAt of a closed handle succeeded")
	}
	if v, ok := r.(VectorReaderAt); ok {
		if _, err := v.ReadvAt([][]byte{make([]byte, 8)}, 0); err == nil {
			t.Error("ReadvAt of a closed handle succeeded")
		}
	}
}

func TestOSTruncateAndRemove(t *testing.T) {
	o := NewOS(t.TempDir())
	f, _ := o.Create("t.bin")
	if err := f.WriteZeroAt(100, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 10 {
		t.Fatalf("size after truncate = %d", sz)
	}
	f.Close()
	if err := o.Remove("t.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Stat("t.bin"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat after remove = %v", err)
	}
}

func TestOSOpenRW(t *testing.T) {
	o := NewOS(t.TempDir())
	f, _ := o.Create("rw.bin")
	f.WriteAt([]byte("abcdef"), 0)
	f.Close()
	g, err := o.OpenRW("rw.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.WriteAt([]byte("XY"), 2); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 6)
	g.ReadAt(b, 0)
	if string(b) != "abXYef" {
		t.Fatalf("got %q", b)
	}
}

func TestErrorWrappingPreservesDetail(t *testing.T) {
	o := NewOS(t.TempDir())
	_, err := o.Open("missing-file")
	if err == nil {
		t.Fatal("expected error")
	}
	// The sentinel matches and the OS detail (path) is preserved.
	if !errors.Is(err, ErrNotExist) {
		t.Fatal("sentinel lost")
	}
	if want := "missing-file"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("detail lost: %v", err)
	}
}

func TestAbsolutePathBypassesRoot(t *testing.T) {
	dir := t.TempDir()
	o := NewOS(dir)
	f, err := o.Create(dir + "/abs.bin")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := o.Stat("abs.bin"); err != nil {
		t.Fatal("absolute and relative views disagree:", err)
	}
}
