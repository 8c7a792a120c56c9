package fsio

import "path"

// Op is one call on an intercepted FileSystem or File, as Intercept's
// hook sees it: what is called, on which file and byte range, and the
// call itself, which Do runs on the layer underneath.
type Op struct {
	// Call names the method: "Create", "Open", "OpenRW", "Stat",
	// "Remove" or "BlockSize" on the file system; "ReadAt", "ReadvAt",
	// "ReadDiscardAt", "WriteAt", "WriteZeroAt", "Truncate", "Sync",
	// "Size" or "Close" on a file.
	Call string
	// Name is the file, as path.Clean leaves it.
	Name string
	// Off and Len are the byte range of a read or write (Truncate: Off is
	// the new size), zero otherwise.
	Off, Len int64

	fs   FileSystem // the file system underneath (file-system calls)
	f    File       // the handle underneath (file calls)
	p    []byte
	bufs [][]byte
	file *File     // where Create, Open and OpenRW leave the handle
	info *FileInfo // where Stat leaves its answer
}

// Do performs the call on the layer underneath and returns its count:
// the bytes moved by a read or write (WriteZeroAt: Len on success), the
// size from Size, the block size from BlockSize, 0 otherwise. A hook may
// call it any number of times (every call is idempotent, see FileSystem)
// or not at all.
func (o Op) Do() (int64, error) {
	switch o.Call {
	case "Create":
		fh, err := o.fs.Create(o.Name)
		*o.file = fh
		return 0, err
	case "Open":
		fh, err := o.fs.Open(o.Name)
		*o.file = fh
		return 0, err
	case "OpenRW":
		fh, err := o.fs.OpenRW(o.Name)
		*o.file = fh
		return 0, err
	case "Stat":
		fi, err := o.fs.Stat(o.Name)
		*o.info = fi
		return 0, err
	case "Remove":
		return 0, o.fs.Remove(o.Name)
	case "BlockSize":
		return o.fs.BlockSize(o.Name), nil
	case "ReadAt":
		n, err := o.f.ReadAt(o.p, o.Off)
		return int64(n), err
	case "ReadvAt":
		n, err := o.f.(VectorReaderAt).ReadvAt(o.bufs, o.Off)
		return int64(n), err
	case "ReadDiscardAt":
		return o.f.ReadDiscardAt(o.Len, o.Off)
	case "WriteAt":
		n, err := o.f.WriteAt(o.p, o.Off)
		return int64(n), err
	case "WriteZeroAt":
		if err := o.f.WriteZeroAt(o.Len, o.Off); err != nil {
			return 0, err
		}
		return o.Len, nil
	case "Truncate":
		return 0, o.f.Truncate(o.Off)
	case "Sync":
		return 0, o.f.Sync()
	case "Size":
		return o.f.Size()
	}
	return 0, o.f.Close()
}

// Intercept returns inner with every FileSystem and File call routed
// through hook, the one way a pass-through layer (Instrument, resil.Wrap,
// simfs.Flaky) is written: the hook sees the call as an Op, decides
// whether, when and how often to run it with op.Do, and returns what the
// caller gets. Handles opened through it are intercepted too. A handle
// keeps ReadvAt exactly when the handle underneath has it, one op per
// vector; the file system always has Unwrap, so inner's capability
// descriptor survives (CapabilitiesOf).
func Intercept(inner FileSystem, hook func(Op) (int64, error)) FileSystem {
	return &interceptFS{inner: inner, hook: hook}
}

type interceptFS struct {
	inner FileSystem
	hook  func(Op) (int64, error)
}

func (x *interceptFS) op(call, name string) Op {
	return Op{Call: call, Name: path.Clean(name), fs: x.inner}
}

func (x *interceptFS) open(call, name string) (File, error) {
	var fh File
	op := x.op(call, name)
	op.file = &fh
	if _, err := x.hook(op); err != nil {
		return nil, err
	}
	f := &interceptFile{inner: fh, name: op.Name, hook: x.hook}
	if _, ok := fh.(VectorReaderAt); ok {
		return interceptVecFile{f}, nil
	}
	return f, nil
}

func (x *interceptFS) Create(name string) (File, error) { return x.open("Create", name) }
func (x *interceptFS) Open(name string) (File, error)   { return x.open("Open", name) }
func (x *interceptFS) OpenRW(name string) (File, error) { return x.open("OpenRW", name) }

func (x *interceptFS) Stat(name string) (FileInfo, error) {
	var fi FileInfo
	op := x.op("Stat", name)
	op.info = &fi
	_, err := x.hook(op)
	return fi, err
}

func (x *interceptFS) Remove(name string) error {
	_, err := x.hook(x.op("Remove", name))
	return err
}

func (x *interceptFS) BlockSize(name string) int64 {
	n, _ := x.hook(x.op("BlockSize", name))
	return n
}

func (x *interceptFS) Unwrap() FileSystem { return x.inner }

type interceptFile struct {
	inner File
	name  string
	hook  func(Op) (int64, error)
}

func (f *interceptFile) op(call string, off, n int64) Op {
	return Op{Call: call, Name: f.name, Off: off, Len: n, f: f.inner}
}

// do runs a call whose only result is its error.
func (f *interceptFile) do(call string, off, n int64) error {
	_, err := f.hook(f.op(call, off, n))
	return err
}

// data runs a read or write of p.
func (f *interceptFile) data(call string, p []byte, off int64) (int, error) {
	op := f.op(call, off, int64(len(p)))
	op.p = p
	n, err := f.hook(op)
	return int(n), err
}

func (f *interceptFile) ReadAt(p []byte, off int64) (int, error)  { return f.data("ReadAt", p, off) }
func (f *interceptFile) WriteAt(p []byte, off int64) (int, error) { return f.data("WriteAt", p, off) }
func (f *interceptFile) WriteZeroAt(n, off int64) error           { return f.do("WriteZeroAt", off, n) }
func (f *interceptFile) Truncate(size int64) error                { return f.do("Truncate", size, 0) }
func (f *interceptFile) Sync() error                              { return f.do("Sync", 0, 0) }
func (f *interceptFile) Close() error                             { return f.do("Close", 0, 0) }
func (f *interceptFile) Size() (int64, error)                     { return f.hook(f.op("Size", 0, 0)) }

func (f *interceptFile) ReadDiscardAt(n, off int64) (int64, error) {
	return f.hook(f.op("ReadDiscardAt", off, n))
}

// interceptVecFile is an interceptFile over a handle with a vectored read.
type interceptVecFile struct{ *interceptFile }

func (f interceptVecFile) ReadvAt(bufs [][]byte, off int64) (int, error) {
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	op := f.op("ReadvAt", off, total)
	op.bufs = bufs
	n, err := f.hook(op)
	return int(n), err
}
