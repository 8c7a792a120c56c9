// Package resil is the transient-fault policy layer: it decides which
// errors are worth retrying (Classify), how hard to retry them (Budget,
// Do), and when to stop trying altogether and degrade instead (Breaker).
// The mechanisms are deliberately split from the injection side (simfs's
// flaky-fault lab) and from the serving integration (internal/serve): this
// package only consumes the error contract documented on fsio.FileSystem —
// transient failures wrap fsio.ErrTransient, everything else is permanent —
// and never imports core or serve.
//
// At the paper's target scale (10^5–10^6 tasks over a shared parallel file
// system) transient EIO/EAGAIN and latency spikes are routine, so the rule
// of thumb encoded here is: retry transient failures within a small bounded
// budget, give up cleanly when the budget is spent, and count both so a
// retry storm is visible in benchmarks rather than silently absorbed.
package resil

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/fsio"
)

// Class is the retryability classification of an error.
type Class int

const (
	// ClassNone is the classification of a nil error.
	ClassNone Class = iota
	// ClassTransient errors may clear on their own; retrying the identical
	// operation is sensible (the fsio.ErrTransient contract).
	ClassTransient
	// ClassPermanent errors will not clear without changing the request
	// (not-exist, exists, quota, closed handles, io.EOF, plain errors).
	ClassPermanent
	// ClassCorrupt errors mean the bytes were read fine but failed
	// validation (bad magic, checksum, torn frame). Never retried here:
	// re-reading returns the same bytes; recovery needs a different replica
	// or a rewrite, which is the caller's decision.
	ClassCorrupt
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	case ClassCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// corruptMarker is implemented by errors that indicate validation failure
// on successfully-read bytes (internal/core's ErrCorrupt). Detected
// structurally so this package does not import the packages it serves.
type corruptMarker interface{ Corrupt() bool }

// Classify maps an error to its retryability class. Corrupt takes
// precedence over transient: an error chain that both carries a corrupt
// marker and wraps ErrTransient is data damage first.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	var cm corruptMarker
	if errors.As(err, &cm) && cm.Corrupt() {
		return ClassCorrupt
	}
	if errors.Is(err, fsio.ErrTransient) {
		return ClassTransient
	}
	return ClassPermanent
}

// Budget bounds one logical operation's retries. The zero value is usable
// and means the default small budget. The delay schedule is fixed: the
// first retry waits backoffBase, each later one backoffGrowth times longer
// up to backoffCap, each spread by ±backoffJitter. A Budget is immutable
// in use; one value may drive any number of concurrent Do calls.
type Budget struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; 1 disables retries).
	MaxAttempts int
	// Seed makes the jitter stream deterministic. Two Do calls over equal
	// Budgets replay identical delay schedules, which keeps simulated
	// experiments bit-reproducible.
	Seed uint64
	// Sleep delivers the backoff delay. nil means time.Sleep. Simulations
	// pass a virtual-clock advancer so retries cost simulated, not real,
	// time.
	Sleep func(time.Duration)
}

// DefaultMaxAttempts is the attempt count of a Budget that sets none.
const DefaultMaxAttempts = 4

// The backoff schedule. Jitter spreads each delay d uniformly over
// [d·(1−J), d·(1+J)] to de-synchronize retrying clients.
const (
	backoffBase   = 2 * time.Millisecond
	backoffCap    = 100 * time.Millisecond
	backoffGrowth = 2.0
	backoffJitter = 0.2
)

func (b Budget) maxAttempts() int {
	if b.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return b.MaxAttempts
}

// Counters tallies retry activity across any number of concurrent Do
// calls. All fields are updated atomically; read them with the Snapshot
// method or atomic loads.
type Counters struct {
	// Ops is the number of logical operations attempted (Do calls).
	Ops atomic.Int64
	// Retries is the number of re-attempts after a retryable failure.
	Retries atomic.Int64
	// GiveUps is the number of logical operations that exhausted their
	// budget and returned a retryable error anyway.
	GiveUps atomic.Int64
}

// CounterSnapshot is a point-in-time copy of Counters.
type CounterSnapshot struct {
	Ops, Retries, GiveUps int64
}

// Snapshot returns a consistent-enough copy for reporting (fields are
// loaded individually; totals may skew by in-flight ops).
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Ops:     c.Ops.Load(),
		Retries: c.Retries.Load(),
		GiveUps: c.GiveUps.Load(),
	}
}

// splitmix64 drives deterministic jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Do runs op under the budget, retrying while Classify reports the failure
// transient. It returns nil on the first success, the last error when the
// budget is exhausted (counted as a give-up), and immediately on the first
// permanent or corrupt error (not a give-up: retrying was never on the
// table). ctrs may be nil.
func Do(b Budget, ctrs *Counters, op func() error) error {
	return DoWhile(b, ctrs, func(err error) bool {
		return Classify(err) == ClassTransient
	}, op)
}

// DoWhile is Do with a caller-chosen retry predicate, for waits whose
// "transient" condition is not an fsio transient error — e.g. polling for
// a file another task is about to create retries ErrNotExist, which
// Classify correctly calls permanent for a single request but which here
// is the expected not-yet state. The backoff, budget, and counter
// semantics are identical to Do.
func DoWhile(b Budget, ctrs *Counters, retryable func(error) bool, op func() error) error {
	if ctrs != nil {
		ctrs.Ops.Add(1)
	}
	sleep := b.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	delay, rng := backoffBase, b.Seed
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if !retryable(err) {
			return err
		}
		if attempt >= b.maxAttempts() {
			if ctrs != nil {
				ctrs.GiveUps.Add(1)
			}
			return fmt.Errorf("resil: budget exhausted after %d attempts: %w", attempt, err)
		}
		rng = splitmix64(rng)
		// u in [-1, 1) from the low 52 bits.
		u := float64(rng&((1<<52)-1))/float64(uint64(1)<<51) - 1
		if ctrs != nil {
			ctrs.Retries.Add(1)
		}
		sleep(time.Duration(float64(delay) * (1 + backoffJitter*u)))
		delay = min(time.Duration(float64(delay)*backoffGrowth), backoffCap)
	}
}
