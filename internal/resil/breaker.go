package resil

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int

const (
	// Closed: requests flow; consecutive transient failures are counted.
	Closed BreakerState = iota
	// Open: requests are rejected immediately (fail fast) for a cooldown.
	Open
	// HalfOpen: exactly one probe request is allowed through; its outcome
	// decides between Closed and re-Open.
	HalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// Breaker is a circuit breaker for one downstream resource (serve keys one
// per physical multifile). Closed until Threshold consecutive failures,
// then Open: Allow fails fast for the next Cooldown requests, after which
// the breaker turns HalfOpen and admits a single probe. The probe's
// Success closes the circuit; its Failure re-opens it for another
// cooldown.
//
// The cooldown is counted in *rejected requests*, not wall-clock time:
// request count is the only clock every deployment mode shares (real
// serving, vtime simulation, unit tests), so breaker traces replay
// deterministically from a request schedule — the same property the flaky
// lab and the jitter stream guarantee on their sides. Under sustained
// traffic the two notions coincide; with no traffic there is nothing to
// protect. All methods are safe for concurrent use.
//
// A healthy circuit — Closed, no consecutive failure — costs Allow and
// Success one atomic load and no write: every transition runs under mu
// and refreshes the healthy mirror, so a caller that reads it set acts
// before any concurrent transition and the state machine is unchanged.
type Breaker struct {
	// NotClosed, when set before first use, is incremented when the
	// circuit leaves Closed and decremented when it closes again. Several
	// breakers may share one gauge, so their owner answers "is any circuit
	// not closed?" with one atomic load instead of locking each breaker.
	NotClosed *atomic.Int32

	healthy atomic.Bool // state == Closed && fails == 0, stored under mu

	mu        sync.Mutex
	threshold int // consecutive failures to trip
	cooldown  int // rejects in Open before the HalfOpen probe
	state     BreakerState
	fails     int  // consecutive failures while Closed
	rejects   int  // rejects since the circuit opened
	probing   bool // HalfOpen probe currently outstanding
	opens     int64
}

// Default breaker knobs, used when NewBreaker gets non-positive values.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 16
)

// NewBreaker builds a closed breaker tripping after threshold consecutive
// failures and probing after cooldown rejected requests (non-positive
// arguments select the defaults).
func NewBreaker(threshold, cooldown int) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	b := &Breaker{threshold: threshold, cooldown: cooldown}
	b.healthy.Store(true)
	return b
}

// settled refreshes the healthy mirror after a change; callers hold b.mu.
func (b *Breaker) settled() {
	b.healthy.Store(b.state == Closed && b.fails == 0)
}

// Allow reports whether a request may proceed. A false return is a
// fail-fast rejection that also advances the cooldown clock. A true return
// in HalfOpen marks the caller as the probe: it MUST report Success or
// Failure, or the circuit stays half-open rejecting everyone else.
func (b *Breaker) Allow() bool {
	if b.healthy.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		b.rejects++
		if b.rejects >= b.cooldown {
			b.state = HalfOpen
		}
		return false
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a request that completed. In HalfOpen it is the probe
// succeeding: the circuit closes. In Closed it resets the consecutive-
// failure count.
func (b *Breaker) Success() {
	if b.healthy.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.settled()
	b.fails = 0
	if b.state == HalfOpen {
		b.state = Closed
		b.probing = false
		b.rejects = 0
		if b.NotClosed != nil {
			b.NotClosed.Add(-1)
		}
	}
}

// Failure records a request that failed transiently after exhausting its
// retry budget. Only classified-transient failures should be fed here: a
// permanent error (not-exist, corrupt) says nothing about backend health,
// and opening the circuit on it would turn one bad request into an outage
// for the good ones.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.settled()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	case HalfOpen:
		// The probe failed; back to Open for another cooldown.
		b.trip()
	}
}

// trip opens the circuit; callers hold b.mu.
func (b *Breaker) trip() {
	if b.state == Closed && b.NotClosed != nil {
		b.NotClosed.Add(1)
	}
	b.state = Open
	b.fails = 0
	b.rejects = 0
	b.probing = false
	b.opens++
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerSnapshot is a point-in-time view of a breaker for health
// reporting.
type BreakerSnapshot struct {
	State BreakerState
	// Fails is the current consecutive-failure count (Closed only).
	Fails int
	// Opens counts how many times the circuit has opened over its life.
	Opens int64
}

// Snapshot returns the breaker's reportable state.
func (b *Breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{State: b.state, Fails: b.fails, Opens: b.opens}
}
