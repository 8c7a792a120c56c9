package simfs

// Flaky-fault injection: the transient half of the failure lab. The crash
// lab (SetVolatileWrites / FailWritesAfter / Crash) models a node dying;
// Flaky models the parallel file system *misbehaving under load* — the
// paper's premise at 10^5–10^6 ranks is that sporadic EIO/EAGAIN, busy
// metadata servers, and latency spikes are normal operating conditions the
// I/O layer must absorb, not surface to every client at once.
//
// Flaky is an fsio.FileSystem decorator, not an FS feature: one seeded
// Flaky instance carries all injection state and wraps any backend — a
// metered simfs View, a serial nil-proc View, or the real OS file system
// in property tests. Every injected failure wraps fsio.ErrTransient, so
// the classification contract documented on fsio.FileSystem holds and
// internal/resil retries exactly the injected faults.
//
// Determinism: every injection decision is a pure function of the seed and
// the global operation index (a splitmix64 stream), so a single-threaded
// run — every simulation, every experiment — replays bit-identically from
// its seed. Under real concurrency (e.g. wrapping the OS file system in a
// property test) the decision stream is still seeded but the assignment of
// decisions to operations follows the goroutine schedule.

import (
	"fmt"
	"path"
	"sync"

	"repro/internal/fsio"
)

// FlakyConfig parameterizes a Flaky fault model. Probabilities are per
// operation in [0, 1]; zero values inject nothing.
type FlakyConfig struct {
	// Seed drives the deterministic decision stream.
	Seed uint64

	// ReadErrProb is the transient-failure probability of one read
	// operation (ReadAt, ReadDiscardAt).
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

// FlakyStats counts what a Flaky instance has done so far.
type FlakyStats struct {
	Ops      int64 // operations that consulted the fault model
	Injected int64 // operations failed with a transient error
	Spikes   int64 // latency spikes delivered
}

// flakyWindow is one per-file deterministic fail window: operations on the
// file whose per-file op index falls in [from, to) fail transiently.
type flakyWindow struct{ from, to int64 }

// Flaky is a seeded transient-fault model shared by every file system it
// wraps. All methods are safe for concurrent use.
type Flaky struct {
	mu      sync.Mutex
	cfg     FlakyConfig
	enabled bool
	ctr     uint64           // global op index (the decision stream position)
	fileOps map[string]int64 // per-file op index (fail-window clock)
	windows map[string][]flakyWindow
	stats   FlakyStats
}

// NewFlaky builds an enabled fault model with the given configuration.
func NewFlaky(cfg FlakyConfig) *Flaky {
	return &Flaky{
		cfg:     cfg,
		enabled: true,
		fileOps: make(map[string]int64),
		windows: make(map[string][]flakyWindow),
	}
}

// SetEnabled toggles all injection (probabilities, windows, and spikes)
// without losing counters or window definitions.
func (f *Flaky) SetEnabled(on bool) {
	f.mu.Lock()
	f.enabled = on
	f.mu.Unlock()
}

// FailWindow makes operations on the named file fail transiently while the
// file's own operation counter is in [from, to) — a deterministic per-file
// outage regardless of the probability knobs. Windows accumulate; see
// ClearWindows.
func (f *Flaky) FailWindow(name string, from, to int64) {
	name = path.Clean(name)
	f.mu.Lock()
	f.windows[name] = append(f.windows[name], flakyWindow{from, to})
	f.mu.Unlock()
}

// FileOps reports how many operations the named file has performed against
// the fault model (the clock FailWindow is expressed in).
func (f *Flaky) FileOps(name string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fileOps[path.Clean(name)]
}

// ClearWindows removes every fail window (the outage ends immediately).
func (f *Flaky) ClearWindows() {
	f.mu.Lock()
	f.windows = make(map[string][]flakyWindow)
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
// decision stream and the same per-file window clocks.
func (f *Flaky) Wrap(inner fsio.FileSystem, sleep func(seconds float64)) fsio.FileSystem {
	return &flakyFS{f: f, inner: inner, sleep: sleep}
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

// decide consumes one decision-stream position for an operation on the
// named file and returns the spike to sleep (seconds) and the error to
// inject, if any.
func (f *Flaky) decide(kind opKind, name string) (spike float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.enabled {
		return 0, nil
	}
	f.stats.Ops++
	fops := f.fileOps[name]
	f.fileOps[name] = fops + 1
	r := splitmix64(f.cfg.Seed + f.ctr)
	f.ctr++

	inWindow := false
	for _, w := range f.windows[name] {
		if fops >= w.from && fops < w.to {
			inWindow = true
			break
		}
	}
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
	if inWindow || u < prob {
		f.stats.Injected++
		flavor := "EIO"
		if r&(1<<52) != 0 {
			flavor = "EAGAIN"
		}
		return 0, fmt.Errorf("simfs: %s: injected transient %s (flaky op %d): %w",
			name, flavor, fops, fsio.ErrTransient)
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
func (w *flakyFS) check(kind opKind, name string) error {
	spike, err := w.f.decide(kind, name)
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

func (w *flakyFS) Create(name string) (fsio.File, error) {
	name = path.Clean(name)
	if err := w.check(opMeta, name); err != nil {
		return nil, err
	}
	fh, err := w.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{w: w, inner: fh, name: name}, nil
}

func (w *flakyFS) Open(name string) (fsio.File, error) {
	name = path.Clean(name)
	if err := w.check(opMeta, name); err != nil {
		return nil, err
	}
	fh, err := w.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{w: w, inner: fh, name: name}, nil
}

func (w *flakyFS) OpenRW(name string) (fsio.File, error) {
	name = path.Clean(name)
	if err := w.check(opMeta, name); err != nil {
		return nil, err
	}
	fh, err := w.inner.OpenRW(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{w: w, inner: fh, name: name}, nil
}

func (w *flakyFS) Stat(name string) (fsio.FileInfo, error) {
	name = path.Clean(name)
	if err := w.check(opMeta, name); err != nil {
		return fsio.FileInfo{}, err
	}
	return w.inner.Stat(name)
}

func (w *flakyFS) Remove(name string) error {
	name = path.Clean(name)
	if err := w.check(opMeta, name); err != nil {
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

func (h *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if err := h.w.check(opRead, h.name); err != nil {
		return 0, err
	}
	return h.inner.ReadAt(p, off)
}

func (h *flakyFile) ReadDiscardAt(n, off int64) (int64, error) {
	if err := h.w.check(opRead, h.name); err != nil {
		return 0, err
	}
	return h.inner.ReadDiscardAt(n, off)
}

func (h *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if err := h.w.check(opWrite, h.name); err != nil {
		return 0, err
	}
	return h.inner.WriteAt(p, off)
}

func (h *flakyFile) WriteZeroAt(n, off int64) error {
	if err := h.w.check(opWrite, h.name); err != nil {
		return err
	}
	return h.inner.WriteZeroAt(n, off)
}

func (h *flakyFile) Truncate(size int64) error {
	if err := h.w.check(opWrite, h.name); err != nil {
		return err
	}
	return h.inner.Truncate(size)
}

func (h *flakyFile) Sync() error {
	if err := h.w.check(opWrite, h.name); err != nil {
		return err
	}
	return h.inner.Sync()
}

func (h *flakyFile) Size() (int64, error) {
	if err := h.w.check(opMeta, h.name); err != nil {
		return 0, err
	}
	return h.inner.Size()
}

func (h *flakyFile) Close() error { return h.inner.Close() }
