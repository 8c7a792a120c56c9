package simfs

// Fault injection: Flaky is the one decorator tests and experiments fail
// backend calls through. The crash lab (SetVolatileWrites / Crash) models
// a node losing its unsynced writes; Flaky models the parallel file system
// misbehaving under load — the paper's premise at 10^5–10^6 ranks is that
// sporadic EIO/EAGAIN, busy metadata servers and latency spikes are normal
// operating conditions — and calls failing outright. One instance carries
// all injection state and wraps any backend (a metered simfs View, a
// serial nil-proc View, the OS file system). Faults come from FlakyConfig's
// seeded probabilities, which wrap fsio.ErrTransient so internal/resil
// retries exactly them, and from a rule (SetRule): a function of the call
// whose error is injected as returned, transient or permanent.
//
// Determinism: every probability decision is a pure function of the seed
// and the global operation index (a splitmix64 stream), so a
// single-threaded run — every simulation, every experiment — replays
// bit-identically from its seed. Under real concurrency the stream is
// still seeded, but which operation gets which decision follows the
// goroutine schedule.

import (
	"fmt"
	"path"
	"sync"

	"repro/internal/fsio"
	"repro/internal/vtime"
)

// FlakyConfig parameterizes a Flaky fault model. Probabilities are per
// operation in [0, 1]; zero values inject nothing.
type FlakyConfig struct {
	// Seed drives the deterministic decision stream.
	Seed uint64

	// ReadErrProb is the transient-failure probability of one read
	// operation (ReadAt, ReadvAt, ReadDiscardAt).
	ReadErrProb float64
	// WriteErrProb is the transient-failure probability of one write-side
	// operation (WriteAt, WriteZeroAt, Sync, Truncate).
	WriteErrProb float64
	// MetaErrProb is the transient-failure probability of one namespace
	// operation (Create, Open, OpenRW, Stat, Remove, Size).
	MetaErrProb float64

	// LatencyProb is the probability that an operation additionally pays a
	// latency spike of LatencySecs (delivered through the Wrap sleep hook;
	// wraps with a nil hook count spikes but do not sleep).
	LatencyProb float64
	// LatencySecs is the spike duration in seconds (virtual seconds when
	// the sleep hook advances a vtime clock).
	LatencySecs float64
}

// FlakyOp is one call as a rule sees it: Op names it ("Create", "Open",
// "OpenRW", "Stat", "Remove", "Size", "ReadAt", "ReadvAt",
// "ReadDiscardAt", "WriteAt", "WriteZeroAt", "Truncate" or "Sync"), Name
// is the file as path.Clean leaves it, and Off and Len are the byte range
// of a read or write (Truncate: Off is the new size), zero otherwise.
type FlakyOp struct {
	Op, Name string
	Off, Len int64
}

// FlakyStats counts what a Flaky instance has done so far.
type FlakyStats struct {
	Ops      int64 // operations that consulted the fault model
	Injected int64 // operations failed, by a drawn fault or by the rule
	Spikes   int64 // latency spikes delivered
}

// Flaky is a seeded fault model shared by every file system it wraps. All
// methods are safe for concurrent use.
type Flaky struct {
	mu      sync.Mutex
	cfg     FlakyConfig
	enabled bool
	ctr     uint64 // global op index (the decision stream position)
	rule    func(FlakyOp) error
	stats   FlakyStats
}

// NewFlaky builds an enabled fault model with the given configuration.
func NewFlaky(cfg FlakyConfig) *Flaky {
	return &Flaky{cfg: cfg, enabled: true}
}

// SetEnabled toggles all injection (probabilities, rule, and spikes)
// without losing counters or the rule.
func (f *Flaky) SetEnabled(on bool) {
	f.mu.Lock()
	f.enabled = on
	f.mu.Unlock()
}

// SetRule installs rule, which sees every call after its seeded draw and
// fails it with the error it returns, unchanged: wrap fsio.ErrTransient
// for a fault the retry layers should absorb, return anything else for a
// permanent one. A drawn fault takes precedence over the rule's, but the
// rule still sees the call. The rule runs under the model's mutex, one
// call at a time, so it may keep counters without locking of its own; it
// must not call back into the Flaky. nil clears the rule.
func (f *Flaky) SetRule(rule func(FlakyOp) error) {
	f.mu.Lock()
	f.rule = rule
	f.mu.Unlock()
}

// Stats returns a snapshot of the injection counters.
func (f *Flaky) Stats() FlakyStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Wrap decorates inner with this fault model. sleep, when non-nil, is
// called to deliver latency spikes (pass a proc-advancing closure in
// simulations, time.Sleep-based in real deployments, nil to ignore
// spikes). Several Wraps may share one Flaky: they draw from the same
// decision stream and consult the same rule.
func (f *Flaky) Wrap(inner fsio.FileSystem, sleep func(seconds float64)) fsio.FileSystem {
	w := &flakyFS{f: f, inner: inner, sleep: sleep}
	if _, ok := inner.(spawner); ok {
		return flakyView{w}
	}
	return w
}

// spawner is a file system that can host a background worker: a View, or
// a decorator of this package over one.
type spawner interface {
	SpawnWorker(body func(fsio.FileSystem, *vtime.Proc)) *vtime.Proc
}

// flakyView is a flakyFS over a file system that can host a background
// worker and keeps its SpawnWorker, so an async collector's background
// worker calls through the same model (its spikes are counted, not slept).
type flakyView struct{ *flakyFS }

func (w flakyView) SpawnWorker(body func(fsio.FileSystem, *vtime.Proc)) *vtime.Proc {
	return w.inner.(spawner).SpawnWorker(func(fs fsio.FileSystem, p *vtime.Proc) {
		body(w.f.Wrap(fs, nil), p)
	})
}

// splitmix64 is the decision-stream generator (same constants as the
// reference implementation); one output per operation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type opKind int

const (
	opRead opKind = iota
	opWrite
	opMeta
)

// decide consumes one decision-stream position for op and returns the
// spike to sleep (seconds) and the error to inject, if any.
func (f *Flaky) decide(kind opKind, op FlakyOp) (spike float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.enabled {
		return 0, nil
	}
	f.stats.Ops++
	r := splitmix64(f.cfg.Seed + f.ctr)
	f.ctr++

	prob := 0.0
	switch kind {
	case opRead:
		prob = f.cfg.ReadErrProb
	case opWrite:
		prob = f.cfg.WriteErrProb
	case opMeta:
		prob = f.cfg.MetaErrProb
	}
	// Two independent draws from one 64-bit output: the low 52 bits pick
	// the failure, the spike draw reuses the word shifted (cheap, and the
	// stream position stays one-per-op so runs replay from the seed).
	u := float64(r&((1<<52)-1)) / float64(uint64(1)<<52)
	if u < prob {
		flavor := "EIO"
		if r&(1<<52) != 0 {
			flavor = "EAGAIN"
		}
		err = fmt.Errorf("simfs: %s: injected transient %s (flaky op %d): %w",
			op.Name, flavor, f.ctr-1, fsio.ErrTransient)
	}
	if f.rule != nil {
		if rerr := f.rule(op); err == nil {
			err = rerr
		}
	}
	if err != nil {
		f.stats.Injected++
		return 0, err
	}
	if f.cfg.LatencyProb > 0 {
		us := float64(splitmix64(r)&((1<<52)-1)) / float64(uint64(1)<<52)
		if us < f.cfg.LatencyProb {
			f.stats.Spikes++
			return f.cfg.LatencySecs, nil
		}
	}
	return 0, nil
}

// check runs one operation's fault decision, delivering any spike through
// the wrap's sleep hook.
func (w *flakyFS) check(kind opKind, op FlakyOp) error {
	spike, err := w.f.decide(kind, op)
	if spike > 0 && w.sleep != nil {
		w.sleep(spike)
	}
	return err
}

// flakyFS is one Wrap of a Flaky around a backend.
type flakyFS struct {
	f     *Flaky
	inner fsio.FileSystem
	sleep func(float64)
}

var _ fsio.FileSystem = (*flakyFS)(nil)

// open runs the decision for one of the three opening calls and wraps the
// handle it returns.
func (w *flakyFS) open(op, name string, open func(string) (fsio.File, error)) (fsio.File, error) {
	name = path.Clean(name)
	if err := w.check(opMeta, FlakyOp{Op: op, Name: name}); err != nil {
		return nil, err
	}
	fh, err := open(name)
	if err != nil {
		return nil, err
	}
	h := &flakyFile{w: w, inner: fh, name: name}
	if _, ok := fh.(fsio.VectorReaderAt); ok {
		return &flakyVecFile{h}, nil
	}
	return h, nil
}

func (w *flakyFS) Create(name string) (fsio.File, error) {
	return w.open("Create", name, w.inner.Create)
}

func (w *flakyFS) Open(name string) (fsio.File, error) {
	return w.open("Open", name, w.inner.Open)
}

func (w *flakyFS) OpenRW(name string) (fsio.File, error) {
	return w.open("OpenRW", name, w.inner.OpenRW)
}

func (w *flakyFS) Stat(name string) (fsio.FileInfo, error) {
	name = path.Clean(name)
	if err := w.check(opMeta, FlakyOp{Op: "Stat", Name: name}); err != nil {
		return fsio.FileInfo{}, err
	}
	return w.inner.Stat(name)
}

func (w *flakyFS) Remove(name string) error {
	name = path.Clean(name)
	if err := w.check(opMeta, FlakyOp{Op: "Remove", Name: name}); err != nil {
		return err
	}
	return w.inner.Remove(name)
}

// BlockSize has no error path and is never flaky.
func (w *flakyFS) BlockSize(name string) int64 { return w.inner.BlockSize(name) }

// Unwrap exposes the decorated backend so its capability descriptor
// survives fault injection; see fsio.CapabilitiesOf.
func (w *flakyFS) Unwrap() fsio.FileSystem { return w.inner }

// flakyFile intercepts the data path of one open handle. Close is never
// flaky: a transient Close failure is not meaningfully retryable (the
// handle is gone either way), so injecting there would only test the
// injector.
type flakyFile struct {
	w     *flakyFS
	inner fsio.File
	name  string
}

var _ fsio.File = (*flakyFile)(nil)

func (h *flakyFile) check(kind opKind, op string, off, n int64) error {
	return h.w.check(kind, FlakyOp{Op: op, Name: h.name, Off: off, Len: n})
}

func (h *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if err := h.check(opRead, "ReadAt", off, int64(len(p))); err != nil {
		return 0, err
	}
	return h.inner.ReadAt(p, off)
}

func (h *flakyFile) ReadDiscardAt(n, off int64) (int64, error) {
	if err := h.check(opRead, "ReadDiscardAt", off, n); err != nil {
		return 0, err
	}
	return h.inner.ReadDiscardAt(n, off)
}

func (h *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if err := h.check(opWrite, "WriteAt", off, int64(len(p))); err != nil {
		return 0, err
	}
	return h.inner.WriteAt(p, off)
}

func (h *flakyFile) WriteZeroAt(n, off int64) error {
	if err := h.check(opWrite, "WriteZeroAt", off, n); err != nil {
		return err
	}
	return h.inner.WriteZeroAt(n, off)
}

func (h *flakyFile) Truncate(size int64) error {
	if err := h.check(opWrite, "Truncate", size, 0); err != nil {
		return err
	}
	return h.inner.Truncate(size)
}

func (h *flakyFile) Sync() error {
	if err := h.check(opWrite, "Sync", 0, 0); err != nil {
		return err
	}
	return h.inner.Sync()
}

func (h *flakyFile) Size() (int64, error) {
	if err := h.check(opMeta, "Size", 0, 0); err != nil {
		return 0, err
	}
	return h.inner.Size()
}

func (h *flakyFile) Close() error { return h.inner.Close() }

// flakyVecFile is a flakyFile over a handle with a vectored read, which it
// keeps visible (the fsio.File decorator rule) with one decision per
// vector call. A handle without ReadvAt stays a flakyFile: fsio.ReadvAt's
// fallback then reaches its ReadAt, one decision either way.
type flakyVecFile struct{ *flakyFile }

func (h flakyVecFile) ReadvAt(bufs [][]byte, off int64) (int, error) {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	if err := h.check(opRead, "ReadvAt", off, n); err != nil {
		return 0, err
	}
	return h.inner.(fsio.VectorReaderAt).ReadvAt(bufs, off)
}
