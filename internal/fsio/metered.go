package fsio

import (
	"errors"
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// Meter holds the fsio instrument families for one backend, registered
// in an obs.Registry under a backend label. Operations are bucketed
// into four classes — read, write, meta (create/open/stat/remove/size/
// truncate), sync — which is the granularity the paper's analysis works
// at (§4 separates data transfer from metadata and sync cost) and keeps
// the family cardinality flat no matter how many call sites exist.
//
// Latency is sampled 1-in-latSample per op class rather than measured on
// every call: two clock reads per op would dominate the cost of a cached
// simfs read, and a sampled histogram answers the same p50/p95/p99
// questions.
type Meter struct {
	backend string

	ops    [opClasses]*obs.Counter
	errs   [opClasses]*obs.Counter
	bytes  [2]*obs.Counter // read, write only
	lat    [opClasses]*obs.Histogram
	ticks  [opClasses]atomic.Int64
	now    func() int64
	off    bool
	sample int64
}

// Op classes.
const (
	opRead = iota
	opWrite
	opMeta
	opSync
	opClasses
)

var opNames = [opClasses]string{"read", "write", "meta", "sync"}

// latSample is the default sampling interval for latency observations.
const latSample = 64

// NewMeter registers the fsio metric families for one backend (the
// backend label distinguishes e.g. "os" from "sim") and returns the
// meter. A nil registry yields an inert meter; metering against
// obs.Nop() is likewise free of atomic traffic beyond the op counters.
func NewMeter(reg *obs.Registry, backend string) *Meter {
	m := &Meter{backend: backend, sample: latSample}
	if reg == nil {
		reg = obs.Nop()
	}
	m.off = reg.Disabled()
	m.now = reg.Now
	for c := 0; c < opClasses; c++ {
		lbl := obs.L("backend", backend, "op", opNames[c])
		m.ops[c] = reg.Counter("fsio_ops_total",
			"fsio operations by backend and op class", lbl...)
		m.errs[c] = reg.Counter("fsio_errors_total",
			"failed fsio operations (io.EOF from short reads excluded)", lbl...)
		m.lat[c] = reg.Histogram("fsio_op_seconds",
			"sampled fsio operation latency", lbl...)
	}
	m.bytes[opRead] = reg.Counter("fsio_bytes_total",
		"bytes moved through fsio", obs.L("backend", backend, "op", "read")...)
	m.bytes[opWrite] = reg.Counter("fsio_bytes_total",
		"bytes moved through fsio", obs.L("backend", backend, "op", "write")...)
	return m
}

// begin starts an op: returns the clock reading to pass to done, or 0
// when this call is not latency-sampled. The first call of each class is
// always sampled so short-lived tools still get a latency point.
func (m *Meter) begin(class int) int64 {
	m.ops[class].Inc()
	if m.off {
		return 0
	}
	if m.ticks[class].Add(1)%m.sample != 1 {
		return 0
	}
	return m.now()
}

// done finishes an op begun with begin.
func (m *Meter) done(class int, start int64, err error) {
	if err != nil && !errors.Is(err, io.EOF) {
		m.errs[class].Inc()
	}
	if start != 0 {
		m.lat[class].Observe(m.now() - start)
	}
}

// Instrument wraps inner so every operation is counted in m. It layers
// anywhere in a decorator stack: outside resil.Wrap it sees the
// logical-operation rate; inside, the per-attempt rate (retries
// included). The serving stack wraps the innermost backend so
// fsio_ops_total{op="read"} counts physical attempts.
func Instrument(inner FileSystem, m *Meter) FileSystem {
	if m == nil {
		m = NewMeter(nil, "nop")
	}
	return &meteredFS{inner: inner, m: m}
}

type meteredFS struct {
	inner FileSystem
	m     *Meter
}

func (f *meteredFS) Create(name string) (File, error) {
	start := f.m.begin(opMeta)
	fh, err := f.inner.Create(name)
	f.m.done(opMeta, start, err)
	if err != nil {
		return nil, err
	}
	return &meteredFile{inner: fh, m: f.m}, nil
}

func (f *meteredFS) Open(name string) (File, error) {
	start := f.m.begin(opMeta)
	fh, err := f.inner.Open(name)
	f.m.done(opMeta, start, err)
	if err != nil {
		return nil, err
	}
	return &meteredFile{inner: fh, m: f.m}, nil
}

func (f *meteredFS) OpenRW(name string) (File, error) {
	start := f.m.begin(opMeta)
	fh, err := f.inner.OpenRW(name)
	f.m.done(opMeta, start, err)
	if err != nil {
		return nil, err
	}
	return &meteredFile{inner: fh, m: f.m}, nil
}

func (f *meteredFS) Stat(name string) (FileInfo, error) {
	start := f.m.begin(opMeta)
	fi, err := f.inner.Stat(name)
	f.m.done(opMeta, start, err)
	return fi, err
}

func (f *meteredFS) Remove(name string) error {
	start := f.m.begin(opMeta)
	err := f.inner.Remove(name)
	f.m.done(opMeta, start, err)
	return err
}

func (f *meteredFS) BlockSize(name string) int64 { return f.inner.BlockSize(name) }

// Unwrap exposes the decorated backend so its capability descriptor
// survives instrumentation; see CapabilitiesOf.
func (f *meteredFS) Unwrap() FileSystem { return f.inner }

type meteredFile struct {
	inner File
	m     *Meter
}

func (f *meteredFile) ReadAt(p []byte, off int64) (int, error) {
	start := f.m.begin(opRead)
	n, err := f.inner.ReadAt(p, off)
	f.m.bytes[opRead].Add(int64(n))
	f.m.done(opRead, start, err)
	return n, err
}

// ReadvAt keeps the backend's vectored read visible through the meter:
// one read op and its bytes per call, like ReadAt.
func (f *meteredFile) ReadvAt(bufs [][]byte, off int64) (int, error) {
	start := f.m.begin(opRead)
	n, err := ReadvAt(f.inner, bufs, off)
	f.m.bytes[opRead].Add(int64(n))
	f.m.done(opRead, start, err)
	return n, err
}

func (f *meteredFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.m.begin(opWrite)
	n, err := f.inner.WriteAt(p, off)
	f.m.bytes[opWrite].Add(int64(n))
	f.m.done(opWrite, start, err)
	return n, err
}

func (f *meteredFile) WriteZeroAt(n, off int64) error {
	start := f.m.begin(opWrite)
	err := f.inner.WriteZeroAt(n, off)
	if err == nil {
		f.m.bytes[opWrite].Add(n)
	}
	f.m.done(opWrite, start, err)
	return err
}

func (f *meteredFile) ReadDiscardAt(n, off int64) (int64, error) {
	start := f.m.begin(opRead)
	got, err := f.inner.ReadDiscardAt(n, off)
	f.m.bytes[opRead].Add(got)
	f.m.done(opRead, start, err)
	return got, err
}

func (f *meteredFile) Size() (int64, error) {
	start := f.m.begin(opMeta)
	n, err := f.inner.Size()
	f.m.done(opMeta, start, err)
	return n, err
}

func (f *meteredFile) Truncate(size int64) error {
	start := f.m.begin(opMeta)
	err := f.inner.Truncate(size)
	f.m.done(opMeta, start, err)
	return err
}

func (f *meteredFile) Sync() error {
	start := f.m.begin(opSync)
	err := f.inner.Sync()
	f.m.done(opSync, start, err)
	return err
}

func (f *meteredFile) Close() error {
	start := f.m.begin(opMeta)
	err := f.inner.Close()
	f.m.done(opMeta, start, err)
	return err
}
