package resil

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(3, 4)
	if b.State() != Closed {
		t.Fatalf("new breaker state %v, want closed", b.State())
	}

	// Interleaved success resets the consecutive count.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("2 consecutive failures tripped a threshold-3 breaker")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("3rd consecutive failure did not open the circuit")
	}

	// Open: fail fast for cooldown requests, counting each reject.
	for i := 0; i < 4; i++ {
		if b.Allow() {
			t.Fatalf("open breaker allowed request %d", i)
		}
	}
	if b.State() != HalfOpen {
		t.Fatalf("after cooldown rejects state is %v, want half-open", b.State())
	}

	// HalfOpen: exactly one probe goes through.
	if !b.Allow() {
		t.Fatalf("half-open breaker rejected the probe")
	}
	if b.Allow() {
		t.Fatalf("half-open breaker allowed a second concurrent probe")
	}

	// Probe fails → re-open, full cooldown again.
	b.Failure()
	if b.State() != Open {
		t.Fatalf("failed probe left state %v, want open", b.State())
	}
	for i := 0; i < 4; i++ {
		if b.Allow() {
			t.Fatalf("re-opened breaker allowed request %d", i)
		}
	}
	if !b.Allow() {
		t.Fatalf("second half-open rejected the probe")
	}

	// Probe succeeds → closed, counters reset.
	b.Success()
	if b.State() != Closed {
		t.Fatalf("successful probe left state %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatalf("closed breaker rejected a request")
	}
	snap := b.Snapshot()
	if snap.Opens != 2 {
		t.Fatalf("Opens = %d, want 2 (initial trip + failed probe)", snap.Opens)
	}
	if snap.State != Closed || snap.Fails != 0 {
		t.Fatalf("snapshot %+v, want closed with zero fails", snap)
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(0, -1)
	if b.threshold != DefaultBreakerThreshold || b.cooldown != DefaultBreakerCooldown {
		t.Fatalf("NewBreaker(0,-1) = threshold %d cooldown %d, want defaults %d/%d",
			b.threshold, b.cooldown, DefaultBreakerThreshold, DefaultBreakerCooldown)
	}
}

// TestBreakerConcurrent hammers one breaker from many goroutines under the
// race detector: the invariants are "no panic, no race, at most one probe
// admitted per half-open episode, and the state is always a legal value".
func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker(3, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if b.Allow() {
					if (g+i)%3 == 0 {
						b.Failure()
					} else {
						b.Success()
					}
				}
				switch s := b.State(); s {
				case Closed, Open, HalfOpen:
				default:
					panic("illegal breaker state")
				}
				_ = b.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	// The breaker must still function after the storm.
	for b.State() != Closed {
		if b.Allow() {
			b.Success()
		}
	}
	if !b.Allow() {
		t.Fatalf("breaker wedged after concurrent storm")
	}
}

// TestBreakerNotClosedGauge: breakers sharing a NotClosed gauge keep it at
// the number of circuits currently open or half-open — a failed probe
// (half-open back to open) must not count twice.
func TestBreakerNotClosedGauge(t *testing.T) {
	var g atomic.Int32
	a, b := NewBreaker(1, 1), NewBreaker(1, 1)
	a.NotClosed, b.NotClosed = &g, &g
	want := func(n int32, when string) {
		t.Helper()
		if got := g.Load(); got != n {
			t.Fatalf("%s: gauge = %d, want %d", when, got, n)
		}
	}
	want(0, "both closed")
	a.Failure()
	want(1, "a open")
	b.Failure()
	want(2, "a and b open")
	a.Allow() // the cooldown reject: a turns half-open
	want(2, "a half-open")
	a.Allow()
	a.Failure()
	want(2, "a's probe failed")
	a.Allow()
	a.Allow()
	a.Success()
	want(1, "a closed again")
	b.Allow()
	b.Allow()
	b.Success()
	want(0, "both closed again")
}

// TestBreakerFastPath: Allow and Success on a healthy circuit skip the
// lock, so the mirror they read must follow every transition. A Success
// that lands after failures takes the locked path and resets the count;
// the circuit then trips on exactly the threshold-th consecutive failure;
// an open circuit still counts every reject toward its cooldown, and the
// NotClosed gauge stays exact through a full open/probe/close episode.
func TestBreakerFastPath(t *testing.T) {
	const threshold, cooldown = 4, 3
	var g atomic.Int32
	b := NewBreaker(threshold, cooldown)
	b.NotClosed = &g
	check := func(state BreakerState, fails int, notClosed int32, when string) {
		t.Helper()
		if snap := b.Snapshot(); snap.State != state || snap.Fails != fails || g.Load() != notClosed {
			t.Fatalf("%s: %v with %d fails, gauge %d; want %v with %d fails, gauge %d",
				when, snap.State, snap.Fails, g.Load(), state, fails, notClosed)
		}
	}
	for i := 0; i < threshold-1; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.Failure()
	}
	check(Closed, threshold-1, 0, "threshold-1 failures")
	b.Success()
	check(Closed, 0, 0, "a success after them")
	b.Success() // the fast path: nothing to reset
	for i := 0; i < threshold-1; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d after the reset", i)
		}
		b.Failure()
	}
	check(Closed, threshold-1, 0, "threshold-1 more failures")
	b.Failure()
	check(Open, 0, 1, "the threshold-th consecutive failure")
	b.Success() // a straggler's success does not close an open circuit
	check(Open, 0, 1, "a success while open")
	for i := 0; i < cooldown; i++ {
		if b.Allow() {
			t.Fatalf("open breaker allowed request %d of its cooldown", i)
		}
	}
	check(HalfOpen, 0, 1, "cooldown rejects")
	if !b.Allow() || b.Allow() {
		t.Fatal("half-open breaker did not admit exactly one probe")
	}
	b.Success()
	check(Closed, 0, 0, "the probe's success")
	if !b.Allow() {
		t.Fatal("closed breaker rejected a request after the probe")
	}
	if snap := b.Snapshot(); snap.Opens != 1 {
		t.Fatalf("Opens = %d, want 1", snap.Opens)
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		Closed: "closed", Open: "open", HalfOpen: "half-open", BreakerState(7): "BreakerState(7)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}
