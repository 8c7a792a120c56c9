package simfs

// Fault injection: Flaky is the one decorator (a hook of fsio.Intercept)
// tests and experiments fail backend calls through. The crash lab
// (SetVolatileWrites / Crash) models a node losing its unsynced writes;
// Flaky models the parallel file system misbehaving under load — the
// paper's premise at 10^5–10^6 ranks is that sporadic EIO/EAGAIN, busy
// metadata servers and latency spikes are normal operating conditions —
// and calls failing outright. One instance carries
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
	rule    func(fsio.Op) error
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

// SetRule installs rule, which sees every call but Close and BlockSize
// after its seeded draw (its Call, Name, Off and Len) and fails it with
// the error it returns, unchanged: wrap fsio.ErrTransient for a fault the
// retry layers should absorb, return anything else for a permanent one. A
// drawn fault takes precedence over the rule's, but the rule still sees
// the call. The rule runs under the model's mutex, one call at a time, so
// it may keep counters without locking of its own; it must not call back
// into the Flaky or run the op. nil clears the rule.
func (f *Flaky) SetRule(rule func(fsio.Op) error) {
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

// Wrap decorates inner with this fault model, as a hook of
// fsio.Intercept. sleep, when non-nil, is called to deliver latency
// spikes (pass a proc-advancing closure in simulations, time.Sleep-based
// in real deployments, nil to ignore spikes). Several Wraps may share one
// Flaky: they draw from the same decision stream and consult the same
// rule. Close and BlockSize are never flaky: a transient Close failure is
// not meaningfully retryable (the handle is gone either way), and
// BlockSize has no error path.
func (f *Flaky) Wrap(inner fsio.FileSystem, sleep func(seconds float64)) fsio.FileSystem {
	w := fsio.Intercept(inner, func(op fsio.Op) (int64, error) {
		prob := f.cfg.WriteErrProb // WriteAt, WriteZeroAt, Truncate, Sync
		switch op.Call {
		case "Close", "BlockSize":
			return op.Do()
		case "ReadAt", "ReadvAt", "ReadDiscardAt":
			prob = f.cfg.ReadErrProb
		case "Create", "Open", "OpenRW", "Stat", "Remove", "Size":
			prob = f.cfg.MetaErrProb
		}
		spike, err := f.decide(prob, op)
		if spike > 0 && sleep != nil {
			sleep(spike)
		}
		if err != nil {
			return 0, err
		}
		return op.Do()
	})
	if _, ok := inner.(spawner); ok {
		return flakyView{w, f}
	}
	return w
}

// spawner is a file system that can host a background worker: a View, or
// a decorator of this package over one.
type spawner interface {
	SpawnWorker(body func(fsio.FileSystem, *vtime.Proc)) *vtime.Proc
}

// flakyView is a Wrap over a file system that can host a background
// worker and keeps its SpawnWorker, so an async collector's background
// worker calls through the same model (its spikes are counted, not slept:
// the wrap's sleep advances the owner's clock).
type flakyView struct {
	fsio.FileSystem // the Intercept over the host
	f               *Flaky
}

func (w flakyView) Unwrap() fsio.FileSystem { return w.FileSystem.(fsio.Unwrapper).Unwrap() }

func (w flakyView) SpawnWorker(body func(fsio.FileSystem, *vtime.Proc)) *vtime.Proc {
	return w.Unwrap().(spawner).SpawnWorker(func(fs fsio.FileSystem, p *vtime.Proc) {
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

// decide consumes one decision-stream position for op, which fails with
// probability prob, and returns the spike to sleep (seconds) and the
// error to inject, if any.
func (f *Flaky) decide(prob float64, op fsio.Op) (spike float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.enabled {
		return 0, nil
	}
	f.stats.Ops++
	r := splitmix64(f.cfg.Seed + f.ctr)
	f.ctr++
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
