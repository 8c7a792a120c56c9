package fsio_test

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

// counter tallies the calls that reach the layer under a decorator, and
// fails every one of them with fail while it is set.
type counter struct {
	calls map[string]int
	fail  error
}

func (c *counter) hit(call string) error { c.calls[call]++; return c.fail }

// countFS counts calls on its way to a simfs view. Its handles have no
// ReadvAt unless vec is set.
type countFS struct {
	inner fsio.FileSystem
	c     *counter
	vec   bool
}

func (x countFS) open(call, name string) (fsio.File, error) {
	if err := x.c.hit(call); err != nil {
		return nil, err
	}
	open := map[string]func(string) (fsio.File, error){
		"Create": x.inner.Create, "Open": x.inner.Open, "OpenRW": x.inner.OpenRW,
	}[call]
	fh, err := open(name)
	if err != nil {
		return nil, err
	}
	f := &countFile{fh, x.c}
	if x.vec {
		return countVecFile{f}, nil
	}
	return f, nil
}

func (x countFS) Create(name string) (fsio.File, error) { return x.open("Create", name) }
func (x countFS) Open(name string) (fsio.File, error)   { return x.open("Open", name) }
func (x countFS) OpenRW(name string) (fsio.File, error) { return x.open("OpenRW", name) }

func (x countFS) Stat(name string) (fsio.FileInfo, error) {
	if err := x.c.hit("Stat"); err != nil {
		return fsio.FileInfo{}, err
	}
	return x.inner.Stat(name)
}

func (x countFS) Remove(name string) error {
	if err := x.c.hit("Remove"); err != nil {
		return err
	}
	return x.inner.Remove(name)
}

func (x countFS) BlockSize(name string) int64 {
	x.c.hit("BlockSize")
	return x.inner.BlockSize(name)
}

// countView is a countFS that also hosts workers, as its simfs view does.
type countView struct{ countFS }

func (v countView) SpawnWorker(body func(fsio.FileSystem, *vtime.Proc)) *vtime.Proc {
	return v.inner.(*simfs.View).SpawnWorker(body)
}

type countFile struct {
	inner fsio.File
	c     *counter
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.c.hit("ReadAt"); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.c.hit("WriteAt"); err != nil {
		return 0, err
	}
	return f.inner.WriteAt(p, off)
}

func (f *countFile) WriteZeroAt(n, off int64) error {
	if err := f.c.hit("WriteZeroAt"); err != nil {
		return err
	}
	return f.inner.WriteZeroAt(n, off)
}

func (f *countFile) ReadDiscardAt(n, off int64) (int64, error) {
	if err := f.c.hit("ReadDiscardAt"); err != nil {
		return 0, err
	}
	return f.inner.ReadDiscardAt(n, off)
}

func (f *countFile) Size() (int64, error) {
	if err := f.c.hit("Size"); err != nil {
		return 0, err
	}
	return f.inner.Size()
}

func (f *countFile) Truncate(size int64) error {
	if err := f.c.hit("Truncate"); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *countFile) Sync() error {
	if err := f.c.hit("Sync"); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *countFile) Close() error {
	if err := f.c.hit("Close"); err != nil {
		return err
	}
	return f.inner.Close()
}

type countVecFile struct{ *countFile }

func (f countVecFile) ReadvAt(bufs [][]byte, off int64) (int, error) {
	if err := f.c.hit("ReadvAt"); err != nil {
		return 0, err
	}
	return fsio.ReadvAt(f.inner, bufs, off)
}

type spawner interface {
	SpawnWorker(func(fsio.FileSystem, *vtime.Proc)) *vtime.Proc
}

// resilAttempts is the table's retry budget.
const resilAttempts = 3

// TestInterceptTable runs every decorator built on fsio.Intercept over a
// plain handle, a handle with ReadvAt and a simfs view, and checks that
// the optional interfaces survive (ReadvAt exactly where the handle
// underneath has it, Unwrap always, SpawnWorker through Flaky only), that
// every FileSystem and File method reaches the layer underneath exactly
// once (resil: once per attempt at a transient error) with its answer
// returned, and that errors come back unchanged.
func TestInterceptTable(t *testing.T) {
	hooks := []struct {
		name  string
		wrap  func(fsio.FileSystem) fsio.FileSystem
		hosts bool // keeps SpawnWorker over a host
		retry bool
	}{
		{"Instrument", func(fs fsio.FileSystem) fsio.FileSystem {
			return fsio.Instrument(fs, fsio.NewMeter(obs.NewRegistry(), "t"))
		}, false, false},
		{"resil.Wrap", func(fs fsio.FileSystem) fsio.FileSystem {
			return resil.Wrap(fs, resil.Budget{MaxAttempts: resilAttempts, Sleep: func(time.Duration) {}}, nil)
		}, false, true},
		{"Flaky.Wrap", func(fs fsio.FileSystem) fsio.FileSystem {
			return simfs.NewFlaky(simfs.FlakyConfig{Seed: 1}).Wrap(fs, nil)
		}, true, false},
	}
	const size = 4096
	type step struct {
		reaches string // the call the layer underneath sees
		do      func(fs fsio.FileSystem, f fsio.File) (any, error)
		want    any // the answer on success
	}
	steps := func(vec bool) []step {
		readv := "ReadAt" // fsio.ReadvAt's fallback
		if vec {
			readv = "ReadvAt"
		}
		buf := make([]byte, 100)
		return []step{
			{"Create", func(fs fsio.FileSystem, _ fsio.File) (any, error) { _, err := fs.Create("new"); return nil, err }, nil},
			{"Open", func(fs fsio.FileSystem, _ fsio.File) (any, error) { _, err := fs.Open("./x"); return nil, err }, nil},
			{"OpenRW", func(fs fsio.FileSystem, _ fsio.File) (any, error) { _, err := fs.OpenRW("x"); return nil, err }, nil},
			{"Stat", func(fs fsio.FileSystem, _ fsio.File) (any, error) { fi, err := fs.Stat("x"); return fi, err }, fsio.FileInfo{Name: "x", Size: size}},
			{"BlockSize", func(fs fsio.FileSystem, _ fsio.File) (any, error) { return fs.BlockSize("x"), nil }, simfs.Jugene().FSBlockSize},
			{"ReadAt", func(_ fsio.FileSystem, f fsio.File) (any, error) { return f.ReadAt(buf, 10) }, len(buf)},
			{readv, func(_ fsio.FileSystem, f fsio.File) (any, error) {
				return fsio.ReadvAt(f, [][]byte{buf[:30], buf[30:]}, 10)
			}, len(buf)},
			{"ReadDiscardAt", func(_ fsio.FileSystem, f fsio.File) (any, error) { return f.ReadDiscardAt(64, 0) }, int64(64)},
			{"WriteAt", func(_ fsio.FileSystem, f fsio.File) (any, error) { return f.WriteAt(buf, size) }, len(buf)},
			{"WriteZeroAt", func(_ fsio.FileSystem, f fsio.File) (any, error) { return nil, f.WriteZeroAt(50, size+100) }, nil},
			{"Size", func(_ fsio.FileSystem, f fsio.File) (any, error) { return f.Size() }, int64(size + 150)},
			{"Truncate", func(_ fsio.FileSystem, f fsio.File) (any, error) { return nil, f.Truncate(size) }, nil},
			{"Sync", func(_ fsio.FileSystem, f fsio.File) (any, error) { return nil, f.Sync() }, nil},
			{"Remove", func(fs fsio.FileSystem, _ fsio.File) (any, error) { return nil, fs.Remove("y") }, nil},
			{"Close", func(_ fsio.FileSystem, f fsio.File) (any, error) { return nil, f.Close() }, nil},
		}
	}
	backends := []struct {
		name       string
		vec, hosts bool
	}{{"plain", false, false}, {"vectored", true, false}, {"view", false, true}}
	for _, h := range hooks {
		for _, b := range backends {
			t.Run(h.name+"/"+b.name, func(t *testing.T) {
				view := simfs.New(simfs.Jugene()).View(0, nil)
				for _, name := range []string{"x", "y"} {
					f, err := view.Create(name)
					if err != nil {
						t.Fatal(err)
					}
					if err := f.WriteZeroAt(size, 0); err != nil {
						t.Fatal(err)
					}
				}
				c := &counter{calls: map[string]int{}}
				var under fsio.FileSystem = countFS{view, c, b.vec}
				if b.hosts {
					under = countView{countFS{view, c, b.vec}}
				}
				fs := h.wrap(under)

				if u, ok := fs.(fsio.Unwrapper); !ok || u.Unwrap() != under {
					t.Fatalf("Unwrap does not reach the layer underneath")
				}
				if _, ok := fs.(spawner); ok != (b.hosts && h.hosts) {
					t.Fatalf("SpawnWorker present %v, want %v", ok, b.hosts && h.hosts)
				}
				f, err := fs.OpenRW("x")
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := f.(fsio.VectorReaderAt); ok != b.vec {
					t.Fatalf("ReadvAt present %v, the handle underneath %v", ok, b.vec)
				}

				for _, s := range steps(b.vec) {
					for _, fail := range []error{fsio.ErrTransient, fsio.ErrNotExist, io.EOF} {
						if s.reaches == "BlockSize" {
							break // no error to return
						}
						c.calls, c.fail = map[string]int{}, fail
						_, err := s.do(fs, f)
						if !errors.Is(err, fail) {
							t.Errorf("%s failing with %v: got %v", s.reaches, fail, err)
						}
						want := 1
						if h.retry && fail == fsio.ErrTransient && s.reaches != "Close" {
							want = resilAttempts
						}
						if fmt.Sprint(c.calls) != fmt.Sprint(map[string]int{s.reaches: want}) {
							t.Errorf("%s failing with %v reached the layer underneath as %v, want %d", s.reaches, fail, c.calls, want)
						}
					}
					c.calls, c.fail = map[string]int{}, nil
					got, err := s.do(fs, f)
					if err != nil || got != s.want && s.want != nil {
						t.Errorf("%s = %v, %v; want %v", s.reaches, got, err, s.want)
					}
					if fmt.Sprint(c.calls) != fmt.Sprint(map[string]int{s.reaches: 1}) {
						t.Errorf("%s reached the layer underneath as %v, want once", s.reaches, c.calls)
					}
				}
			})
		}
	}
}

// TestDecoratorStackAllocations pins the interceptor's cost on the read
// path: ReadAt and ReadvAt through Instrument ∘ resil.Wrap ∘ Flaky.Wrap
// over fsio.OS allocate nothing.
func TestDecoratorStackAllocations(t *testing.T) {
	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: 1})
	b := resil.Budget{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	fs := fsio.Instrument(resil.Wrap(fl.Wrap(fsio.NewOS(t.TempDir()), nil), b, &resil.Counters{}),
		fsio.NewMeter(obs.NewRegistry(), "os"))
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	bufs := [][]byte{buf[:1024], buf[1024:]}
	for name, read := range map[string]func() (int, error){
		"ReadAt":  func() (int, error) { return f.ReadAt(buf, 4096) },
		"ReadvAt": func() (int, error) { return fsio.ReadvAt(f, bufs, 4096) },
	} {
		if n, err := read(); n != len(buf) || err != nil {
			t.Fatalf("%s = %d, %v", name, n, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { read() }); allocs != 0 {
			t.Errorf("%s through the decorator stack: %v allocations, want 0", name, allocs)
		}
	}
}
