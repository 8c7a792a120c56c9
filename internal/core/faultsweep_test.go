package sion

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

// The fault sweeps: a one-shot permanent fault at every call index of a
// fault-free run, on simfs under mpi.RunSim, so a hang is vtime's deadlock
// panic rather than a timeout. The promise they check is that every rank
// learns of a failure and none hangs: some call returns an error wrapping
// the injected one, or every call succeeds and the bytes are the
// fault-free run's; no read returns wrong bytes; no goroutine outlives
// Close.

// errSweep is the permanent fault the sweeps inject.
var errSweep = errors.New("fault sweep: injected permanent failure")

var (
	// sweepWriteOps are the calls that change the file system.
	sweepWriteOps = map[string]bool{"Create": true, "OpenRW": true, "WriteAt": true, "WriteZeroAt": true, "Truncate": true, "Sync": true}
	// sweepReadOps are the calls a read open and its reads make.
	sweepReadOps = map[string]bool{"Open": true, "Stat": true, "ReadAt": true}
)

const sweepRanks = 4

// failKth is a Flaky rule that counts the calls named in ops and fails
// exactly the k-th with errSweep (k = 0 fails none).
type failKth struct {
	ops  map[string]bool
	k, n int
}

func (r *failKth) rule(op fsio.Op) error {
	if !r.ops[op.Call] {
		return nil
	}
	if r.n++; r.n == r.k {
		return errSweep
	}
	return nil
}

// sweepSim runs body on sweepRanks ranks under mpi.RunSim over fs, each
// rank's view wrapped in fl (when not nil), and returns a panic — vtime's
// deadlock report — as an error.
func sweepSim(fs *simfs.FS, fl *simfs.Flaky, body func(c *mpi.Comm, fsys fsio.FileSystem)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	mpi.RunSim(vtime.NewEngine(), sweepRanks, mpi.DefaultCost, func(c *mpi.Comm) {
		var fsys fsio.FileSystem = fs.View(c.Rank(), c.Proc())
		if fl != nil {
			fsys = fl.Wrap(fsys, nil)
		}
		body(c, fsys)
	})
	return nil
}

// sweepPayload is rank r's i-th write of the sweep workload.
func sweepPayload(r, i int) []byte { return rankPayload(100*r+i, 200+37*r) }

// sweepCalls records every call's error per rank.
type sweepCalls [sweepRanks][]error

func (s *sweepCalls) add(rank int, err error) error {
	s[rank] = append(s[rank], err)
	return err
}

// verdict checks the run-level invariant: some call failed with the
// injected fault, or none failed; it reports which.
func (s *sweepCalls) verdict() (surfaced bool, err error) {
	var other error
	for _, errs := range s {
		for _, e := range errs {
			switch {
			case errors.Is(e, errSweep):
				surfaced = true
			case e != nil && other == nil:
				other = e
			}
		}
	}
	if surfaced {
		return true, nil
	}
	if other != nil {
		return false, fmt.Errorf("a call failed without naming the injected fault: %w", other)
	}
	return false, nil
}

// sweepWrite runs the write workload — ParOpen, six writes with a Flush
// after every second, Close — on fs with the k-th mutating call failing,
// and returns the mutating calls made and the calls' errors.
func sweepWrite(fs *simfs.FS, name string, o Options, k int) (n int, calls *sweepCalls, err error) {
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	r := &failKth{ops: sweepWriteOps, k: k}
	fl.SetRule(r.rule)
	calls = new(sweepCalls)
	err = sweepSim(fs, fl, func(c *mpi.Comm, fsys fsio.FileSystem) {
		rank, opts := c.Rank(), o
		f, err := ParOpen(c, fsys, name, WriteMode, &opts)
		if calls.add(rank, err) != nil {
			return
		}
		for i := 0; i < 6; i++ {
			_, err := f.Write(sweepPayload(rank, i))
			calls.add(rank, err)
			if i%2 == 1 {
				calls.add(rank, f.Flush())
			}
		}
		calls.add(rank, f.Close())
	})
	return r.n, calls, err
}

// sweepBytes is every byte of a multifile of nfiles physical files on fs,
// watermark sidecars included.
func sweepBytes(fs *simfs.FS, name string, nfiles int) []byte {
	var out []byte
	v := fs.View(0, nil)
	for _, phys := range PhysicalNames(name, max(nfiles, 1)) {
		for _, file := range []string{phys, phys + ".wmk"} {
			if fh, err := v.Open(file); err == nil {
				size, _ := fh.Size()
				buf := make([]byte, size)
				fh.ReadAt(buf, 0)
				fh.Close()
				out = append(out, buf...)
			}
		}
	}
	return out
}

// sweepWriteSets are the write modes of the sweep.
var sweepWriteSets = []struct {
	name string
	opts Options
}{
	{"direct", Options{}},
	{"nfiles2", Options{NFiles: 2}},
	{"headers", Options{ChunkHeaders: true}},
	{"watermarks", Options{Watermarks: true}},
	{"coll2-sync", Options{CollectorGroup: 2}},
	{"coll2-async", Options{CollectorGroup: 2, AsyncCollective: true}},
	{"coll2-watermarks", Options{CollectorGroup: 2, Watermarks: true}},
	{"staged", Options{BufferSize: 256}},
	{"staged-watermarks", Options{BufferSize: 256, Watermarks: true}},
}

// sweepAll runs run fault-free to count its calls, then once for every
// call index k with the k-th call failing, and checks each run: no hang
// (run's error), the k-th call made, the fault surfaced or every call
// succeeded with the fault-free result (clean, when not nil), and no
// goroutine left behind.
func sweepAll(t *testing.T, run func(k int) (n int, calls *sweepCalls, err error), clean func() bool) {
	t.Helper()
	total, calls, err := run(0)
	if err == nil {
		_, err = calls.verdict()
	}
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	base := runtime.NumGoroutine()
	surfaced := 0
	for k := 1; k <= total; k++ {
		n, calls, err := run(k)
		if err == nil && n < k {
			err = fmt.Errorf("the run made only %d calls", n)
		}
		ok := false
		if err == nil {
			ok, err = calls.verdict()
		}
		if err == nil && !ok && clean != nil && !clean() {
			err = errors.New("every call succeeded, but the result differs from the fault-free run's")
		}
		if err != nil {
			t.Fatalf("fault at call %d of %d: %v", k, total, err)
		}
		if ok {
			surfaced++
		}
		waitGoroutines(t, base)
	}
	t.Logf("%d fault points, %d surfaced, 0 hangs", total, surfaced)
}

// TestFaultSweepWrite fails every mutating call of a ParOpen write, its
// writes and flushes, and its Close, one at a time, in each write mode.
func TestFaultSweepWrite(t *testing.T) {
	for _, set := range sweepWriteSets {
		set := set
		t.Run(set.name, func(t *testing.T) {
			o := set.opts
			o.ChunkSize, o.FSBlockSize = 512, 256
			var fs *simfs.FS
			var want []byte
			sweepAll(t, func(k int) (int, *sweepCalls, error) {
				fs = simfs.New(simfs.Jugene())
				n, calls, err := sweepWrite(fs, "s.sion", o, k)
				if k == 0 {
					want = sweepBytes(fs, "s.sion", o.NFiles)
				}
				return n, calls, err
			}, func() bool { return bytes.Equal(sweepBytes(fs, "s.sion", o.NFiles), want) })
		})
	}
}

// TestWriteCallFailures fails the backend call behind each staging flush,
// chunk step and close that the write sweep does not reach, on one rank:
// the call that needs it must return the injected error.
func TestWriteCallFailures(t *testing.T) {
	fail := func(call string) func(fsio.Op) error {
		return func(op fsio.Op) error {
			if op.Call == call {
				return errSweep
			}
			return nil
		}
	}
	staged := Options{ChunkSize: 512, FSBlockSize: 256, BufferSize: 256}
	headers := Options{ChunkSize: 512, FSBlockSize: 256, BufferSize: 256, ChunkHeaders: true}
	for _, c := range []struct {
		name string
		opts Options
		pre  func(f *File) error // runs before the rule is set
		call string              // the failing backend call
		act  func(f *File) error
	}{
		{"SetBufferSize flushes", staged, writeN(100), "WriteAt",
			func(f *File) error { return f.SetBufferSize(BufferOff) }},
		{"WriteSynthetic flushes", staged, writeN(100), "WriteAt",
			func(f *File) error { return f.WriteSynthetic(10) }},
		{"EnsureFreeSpace flushes", staged, writeN(100), "WriteAt",
			func(f *File) error { return f.EnsureFreeSpace(f.ChunkCapacity()) }},
		{"a staged write seals the full chunk", headers, func(f *File) error { return writeN(int(f.ChunkCapacity()))(f) }, "WriteAt",
			writeN(1)},
		{"WriteSynthetic seals the full chunk", headers, func(f *File) error { return f.WriteSynthetic(f.ChunkCapacity()) }, "WriteAt",
			func(f *File) error { return f.WriteSynthetic(1) }},
		{"WriteSynthetic writes zeros", staged, nil, "WriteZeroAt",
			func(f *File) error { return f.WriteSynthetic(10) }},
		{"a key record's header", Options{ChunkSize: 512, FSBlockSize: 256}, nil, "WriteAt",
			func(f *File) error { kw, _ := NewKeyWriter(f); return kw.WriteKey(1, []byte("x")) }},
	} {
		fl := simfs.NewFlaky(simfs.FlakyConfig{})
		fsys := fl.Wrap(fsio.NewOS(t.TempDir()), nil)
		mpi.Run(1, func(cm *mpi.Comm) {
			o := c.opts
			f, err := ParOpen(cm, fsys, "f.sion", WriteMode, &o)
			if err == nil && c.pre != nil {
				err = c.pre(f)
			}
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				return
			}
			fl.SetRule(fail(c.call))
			if err := c.act(f); !errors.Is(err, errSweep) {
				t.Errorf("%s: %v, want the injected fault", c.name, err)
			}
			fl.SetRule(nil)
			f.Close()
		})
	}
	// Close reports a watermark sidecar or a data file that fails to close.
	for _, name := range []string{"f.sion.wmk", "f.sion"} {
		fsys := fsio.Intercept(fsio.NewOS(t.TempDir()), func(op fsio.Op) (int64, error) {
			n, err := op.Do()
			if op.Call == "Close" && op.Name == name {
				return n, errSweep
			}
			return n, err
		})
		mpi.Run(1, func(cm *mpi.Comm) {
			f, err := ParOpen(cm, fsys, "f.sion", WriteMode, &Options{ChunkSize: 512, FSBlockSize: 256, Watermarks: true})
			if err == nil {
				_, err = f.Write(make([]byte, 100))
			}
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.Close(); !errors.Is(err, errSweep) {
				t.Errorf("Close with %s failing to close: %v, want the injected fault", name, err)
			}
		})
	}
	// The serial cursor flushes a rank's stage before it moves inside the
	// rank, and a read handle reads synthetic bytes through ReadDiscardAt.
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	fsys := fl.Wrap(fsio.NewOS(t.TempDir()), nil)
	sf, err := Create(fsys, "s.sion", []int64{512}, &staged)
	if err == nil {
		err = sf.Seek(0, 0, 0)
	}
	if err == nil {
		_, err = sf.Write(make([]byte, 100))
	}
	if err != nil {
		t.Fatal(err)
	}
	fl.SetRule(fail("WriteAt"))
	if err := sf.Seek(0, 1, 0); !errors.Is(err, errSweep) {
		t.Errorf("serial Seek: %v, want the injected fault", err)
	}
	fl.SetRule(nil)
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRank(fsys, "s.sion", 0)
	if err != nil {
		t.Fatal(err)
	}
	fl.SetRule(fail("ReadDiscardAt"))
	if _, err := r.ReadSynthetic(10); !errors.Is(err, errSweep) {
		t.Errorf("ReadSynthetic: %v, want the injected fault", err)
	}
	r.Close()
}

// writeN returns a step that writes n payload bytes.
func writeN(n int) func(f *File) error {
	return func(f *File) error { _, err := f.Write(make([]byte, n)); return err }
}

// sweepSerialWrite runs the serial write workload on fs with the k-th
// mutating call failing — Create for sweepRanks tasks; each task's first
// block, then each task's second, then an append to each task's first
// block, every write after a Seek; Close — and returns the mutating calls
// made and the calls' errors, all on slot 0 of sweepCalls.
func sweepSerialWrite(fs *simfs.FS, name string, o Options, k int) (n int, calls *sweepCalls, err error) {
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	r := &failKth{ops: sweepWriteOps, k: k}
	fl.SetRule(r.rule)
	calls = new(sweepCalls)
	sizes := make([]int64, sweepRanks)
	for i := range sizes {
		sizes[i] = o.ChunkSize
	}
	sf, err := Create(fl.Wrap(fs.View(0, nil), nil), name, sizes, &o)
	if calls.add(0, err) != nil {
		return r.n, calls, nil
	}
	write := func(rank, block int, pos int64, p []byte) {
		if calls.add(0, sf.Seek(rank, block, pos)) == nil {
			_, err := sf.Write(p)
			calls.add(0, err)
		}
	}
	for block := 0; block < 2; block++ {
		for rank := 0; rank < sweepRanks; rank++ {
			write(rank, block, 0, sweepPayload(rank, block))
		}
	}
	for rank := 0; rank < sweepRanks; rank++ {
		write(rank, 0, int64(len(sweepPayload(rank, 0))), sweepPayload(rank, 2)[:100])
	}
	calls.add(0, sf.Close())
	return r.n, calls, nil
}

// TestFaultSweepSerialWrite fails every mutating call of a serial Create,
// its seeks and writes across two blocks and back, and its Close, one at
// a time, unstaged (direct, NFiles 2, chunk headers) and staged.
func TestFaultSweepSerialWrite(t *testing.T) {
	for _, set := range []struct {
		name string
		opts Options
	}{
		{"direct", Options{}},
		{"nfiles2", Options{NFiles: 2}},
		{"headers", Options{ChunkHeaders: true}},
		{"staged", Options{BufferSize: 256}},
	} {
		set := set
		t.Run(set.name, func(t *testing.T) {
			o := set.opts
			o.ChunkSize, o.FSBlockSize = 512, 256
			var fs *simfs.FS
			var want []byte
			sweepAll(t, func(k int) (int, *sweepCalls, error) {
				fs = simfs.New(simfs.Jugene())
				n, calls, err := sweepSerialWrite(fs, "s.sion", o, k)
				if k == 0 {
					want = sweepBytes(fs, "s.sion", o.NFiles)
				}
				return n, calls, err
			}, func() bool { return bytes.Equal(sweepBytes(fs, "s.sion", o.NFiles), want) })
		})
	}
}

// sweepRead opens name for reading in one of the read modes, reads every
// owned rank's stream in full and closes, with the k-th read-side call
// failing; it returns the read-side calls made and the calls' errors. A
// read that succeeds must return the written bytes.
func sweepRead(fs *simfs.FS, name string, mapped bool, opts *Options, k int) (n int, calls *sweepCalls, err error) {
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	r := &failKth{ops: sweepReadOps, k: k}
	fl.SetRule(r.rule)
	calls = new(sweepCalls)
	var wrong error
	readRank := func(rank, g int, f *File) {
		var want []byte
		for i := 0; i < 6; i++ {
			want = append(want, sweepPayload(g, i)...)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(f, got); calls.add(rank, err) == nil && !bytes.Equal(got, want) && wrong == nil {
			wrong = fmt.Errorf("reader %d: rank %d read back wrong bytes", rank, g)
		}
	}
	err = sweepSim(fs, fl, func(c *mpi.Comm, fsys fsio.FileSystem) {
		rank := c.Rank()
		if !mapped {
			f, err := ParOpen(c, fsys, name, ReadMode, opts)
			if calls.add(rank, err) != nil {
				return
			}
			readRank(rank, rank, f)
			calls.add(rank, f.Close())
			return
		}
		mf, err := ParOpenMapped(c, fsys, name, ReadMode, nil, opts)
		if calls.add(rank, err) != nil {
			return
		}
		for _, g := range mf.OwnedRanks() {
			f, err := mf.Rank(g)
			if calls.add(rank, err) == nil {
				readRank(rank, g, f)
			}
		}
		calls.add(rank, mf.Close())
	})
	if err == nil {
		err = wrong
	}
	return r.n, calls, err
}

// TestFaultSweepRead fails every Open, Stat and ReadAt of a read open and
// its reads, one at a time: ParOpen read (direct, NFiles 2, collective)
// and ParOpenMapped.
func TestFaultSweepRead(t *testing.T) {
	fs := simfs.New(simfs.Jugene())
	for _, nfiles := range []int{1, 2} {
		o := Options{ChunkSize: 512, FSBlockSize: 256, NFiles: nfiles}
		_, calls, err := sweepWrite(fs, fmt.Sprintf("r%d.sion", nfiles), o, 0)
		if err == nil {
			_, err = calls.verdict()
		}
		if err != nil {
			t.Fatalf("writing the nfiles=%d multifile: %v", nfiles, err)
		}
	}
	for _, mode := range []struct {
		name   string
		file   string
		mapped bool
		opts   *Options
	}{
		{"direct", "r1.sion", false, nil},
		{"nfiles2", "r2.sion", false, nil},
		{"collective", "r1.sion", false, &Options{CollectorGroup: 2}},
		{"mapped", "r2.sion", true, nil},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			sweepAll(t, func(k int) (int, *sweepCalls, error) {
				return sweepRead(fs, mode.file, mode.mapped, mode.opts, k)
			}, nil)
		})
	}
}

// sweepToolOps are every call the rule of a Flaky sees (all but Close and
// BlockSize): the offline tools' sweep fails reads and writes alike.
var sweepToolOps = map[string]bool{
	"Create": true, "Open": true, "OpenRW": true, "Stat": true, "Remove": true,
	"ReadAt": true, "ReadvAt": true, "ReadDiscardAt": true,
	"WriteAt": true, "WriteZeroAt": true, "Truncate": true, "Sync": true, "Size": true,
}

// sweepToolSource writes the tools' source multifile s.sion, two physical
// files from sweepRanks ranks, on a fresh fs. Its writers use chunk
// headers, except under "wm-crash", which has watermarks only. "tail"
// then cuts the first file's trailer and the end of metablock 2 off; the
// crash kinds' writers flush and stop before Close, so no file has a
// metablock 2 and the last chunks' headers still say open.
func sweepToolSource(kind string) (*simfs.FS, error) {
	fs := simfs.New(simfs.Jugene())
	o := Options{ChunkSize: 512, FSBlockSize: 256, NFiles: 2, ChunkHeaders: true}
	if kind == "wm-crash" {
		o.ChunkHeaders, o.Watermarks = false, true
	}
	if kind == "crash" || kind == "wm-crash" {
		var errs [sweepRanks]error
		err := sweepSim(fs, nil, func(c *mpi.Comm, fsys fsio.FileSystem) {
			f, err := ParOpen(c, fsys, "s.sion", WriteMode, &o)
			for i := 0; err == nil && i < 6; i++ {
				_, err = f.Write(sweepPayload(c.Rank(), i))
			}
			if err == nil {
				err = f.Flush()
			}
			errs[c.Rank()] = err
		})
		return fs, errors.Join(append(errs[:], err)...)
	}
	_, calls, err := sweepWrite(fs, "s.sion", o, 0)
	if err == nil {
		_, err = calls.verdict()
	}
	if err != nil || kind != "tail" {
		return fs, err
	}
	fh, err := fs.View(0, nil).OpenRW(fileName("s.sion", 0))
	if err != nil {
		return nil, err
	}
	size, err := fh.Size()
	if err == nil {
		err = fh.Truncate(size - tailSize - 8)
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return fs, err
}

// sweepTaskFiles is every byte of Split's task files, in rank order.
func sweepTaskFiles(fs *simfs.FS) []byte {
	var out []byte
	v := fs.View(0, nil)
	for r := 0; r < sweepRanks; r++ {
		if fh, err := v.Open(fmt.Sprintf("task-%d", r)); err == nil {
			size, _ := fh.Size()
			buf := make([]byte, size)
			fh.ReadAt(buf, 0)
			fh.Close()
			out = append(out, buf...)
		}
	}
	return out
}

// TestFaultSweepTools fails every call of the offline tools, one at a
// time, on simfs and on ObjStore over simfs (the fault under the object
// store, so its error paths run): Defrag, Split and Verify of a
// chunk-header multifile, and Repair of each damaged source of
// sweepToolSource. Beyond the sweep's invariants, Defrag, Split and
// Verify leave their source byte-identical, and a failed Repair leaves a
// file that a second Repair brings to the fault-free result and Verify
// accepts.
func TestFaultSweepTools(t *testing.T) {
	for _, be := range []struct {
		name string
		wrap func(fsio.FileSystem) fsio.FileSystem
	}{
		{"simfs", func(v fsio.FileSystem) fsio.FileSystem { return v }},
		{"objstore", func(v fsio.FileSystem) fsio.FileSystem {
			return simfs.NewObjStore(simfs.ObjProfile{}).Wrap(v, nil)
		}},
	} {
		repair := func(fsys fsio.FileSystem) error { _, err := Repair(fsys, "s.sion"); return err }
		for _, tool := range []struct {
			name   string
			source string // sweepToolSource's kind; a repair source when not ""
			run    func(fsys fsio.FileSystem) error
			result func(fs *simfs.FS) []byte
		}{
			{"defrag", "",
				func(fsys fsio.FileSystem) error { return Defrag(fsys, "s.sion", fsys, "d.sion") },
				func(fs *simfs.FS) []byte { return sweepBytes(fs, "d.sion", 2) }},
			{"split", "",
				func(fsys fsio.FileSystem) error { return Split(fsys, "s.sion", fsys, "task-%d", nil) },
				sweepTaskFiles},
			{"verify", "",
				func(fsys fsio.FileSystem) error { return Verify(fsys, "s.sion") },
				func(fs *simfs.FS) []byte { return nil }},
			{"repair-tail", "tail", repair, func(fs *simfs.FS) []byte { return sweepBytes(fs, "s.sion", 2) }},
			{"repair-crash", "crash", repair, func(fs *simfs.FS) []byte { return sweepBytes(fs, "s.sion", 2) }},
			{"repair-wm-crash", "wm-crash", repair, func(fs *simfs.FS) []byte { return sweepBytes(fs, "s.sion", 2) }},
		} {
			be, tool := be, tool
			t.Run(be.name+"/"+tool.name, func(t *testing.T) {
				var fs *simfs.FS
				var want []byte
				sweepAll(t, func(k int) (n int, calls *sweepCalls, err error) {
					if fs, err = sweepToolSource(tool.source); err != nil {
						return 0, nil, fmt.Errorf("writing the source: %w", err)
					}
					src := sweepBytes(fs, "s.sion", 2)
					fl := simfs.NewFlaky(simfs.FlakyConfig{})
					r := &failKth{ops: sweepToolOps, k: k}
					fl.SetRule(r.rule)
					calls = new(sweepCalls)
					func() {
						defer func() {
							if p := recover(); p != nil {
								err = fmt.Errorf("%s panicked: %v", tool.name, p)
							}
						}()
						calls.add(0, tool.run(be.wrap(fl.Wrap(fs.View(0, nil), nil))))
					}()
					switch {
					case err != nil:
					case k == 0:
						want = tool.result(fs)
					case tool.source == "" && !bytes.Equal(sweepBytes(fs, "s.sion", 2), src):
						err = errors.New("the source changed")
					case tool.source != "" && calls[0][0] != nil:
						v := be.wrap(fs.View(0, nil))
						if _, rerr := Repair(v, "s.sion"); rerr != nil {
							err = fmt.Errorf("a second Repair: %w", rerr)
						} else if verr := Verify(v, "s.sion"); verr != nil {
							err = fmt.Errorf("Verify after a second Repair: %w", verr)
						} else if !bytes.Equal(tool.result(fs), want) {
							err = errors.New("a second Repair's result differs from the fault-free one")
						}
					}
					return r.n, calls, err
				}, func() bool { return bytes.Equal(tool.result(fs), want) })
			})
		}
	}
}

// TestParOpenWriteFailsTogether: one rank's failed step inside a ParOpen
// write fails the open on every rank instead of leaving the others to
// block in Close; the failing rank's error names the cause.
func TestParOpenWriteFailsTogether(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		victim int // the rank whose view fails; -1: every rank's
		fail   func(op fsio.Op) bool
	}{
		{"physical file OpenRW", Options{}, 2,
			func(op fsio.Op) bool { return op.Call == "OpenRW" }},
		{"sidecar OpenRW", Options{Watermarks: true}, 2,
			func(op fsio.Op) bool { return op.Call == "OpenRW" && op.Name == wmName("t.sion", 0) }},
		{"first chunk header", Options{ChunkHeaders: true}, 2,
			func(op fsio.Op) bool { return op.Call == "WriteAt" }},
		{"collector OpenRW", Options{CollectorGroup: 2, AsyncCollective: true}, 2,
			func(op fsio.Op) bool { return op.Call == "OpenRW" }},
		{"one file group's create", Options{NFiles: 2}, -1,
			func(op fsio.Op) bool { return op.Call == "Create" && op.Name == fileName("t.sion", 1) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fired := false
			fl := simfs.NewFlaky(simfs.FlakyConfig{})
			fl.SetRule(func(op fsio.Op) error {
				if fired || !tc.fail(op) {
					return nil
				}
				fired = true
				return errSweep
			})
			base := runtime.NumGoroutine()
			var errs [sweepRanks]error
			err := sweepSim(simfs.New(simfs.Jugene()), nil, func(c *mpi.Comm, fsys fsio.FileSystem) {
				if tc.victim < 0 || c.Rank() == tc.victim {
					fsys = fl.Wrap(fsys, nil)
				}
				o := tc.opts
				o.ChunkSize, o.FSBlockSize = 512, 256
				f, err := ParOpen(c, fsys, "t.sion", WriteMode, &o)
				if errs[c.Rank()] = err; err == nil {
					f.Write(sweepPayload(c.Rank(), 0))
					f.Close()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !fired {
				t.Fatal("the fault never fired")
			}
			cause := false
			for r, err := range errs {
				if err == nil {
					t.Errorf("rank %d: ParOpen succeeded though another rank's open failed", r)
				}
				cause = cause || errors.Is(err, errSweep)
			}
			if !cause {
				t.Errorf("no rank's error names the injected fault: %v", errs)
			}
			waitGoroutines(t, base)
		})
	}
}
