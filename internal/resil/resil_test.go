package resil

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/fsio"
)

type corruptErr struct{ bad bool }

func (e corruptErr) Error() string { return "test: corrupt" }
func (e corruptErr) Corrupt() bool { return e.bad }

func TestClassify(t *testing.T) {
	transient := fmt.Errorf("backend: %w", fsio.ErrTransient)
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassNone},
		{"transient sentinel", fsio.ErrTransient, ClassTransient},
		{"wrapped transient", transient, ClassTransient},
		{"deeply wrapped transient", fmt.Errorf("a: %w", fmt.Errorf("b: %w", transient)), ClassTransient},
		{"not exist", fsio.ErrNotExist, ClassPermanent},
		{"wrapped not exist", fmt.Errorf("open: %w", fsio.ErrNotExist), ClassPermanent},
		{"exists", fsio.ErrExist, ClassPermanent},
		{"quota", fsio.ErrQuota, ClassPermanent},
		{"eof", io.EOF, ClassPermanent},
		{"unexpected eof", io.ErrUnexpectedEOF, ClassPermanent},
		{"plain", errors.New("boom"), ClassPermanent},
		{"corrupt marker", corruptErr{bad: true}, ClassCorrupt},
		{"wrapped corrupt", fmt.Errorf("parse: %w", corruptErr{bad: true}), ClassCorrupt},
		{"corrupt marker false", corruptErr{bad: false}, ClassPermanent},
		{"corrupt beats transient", fmt.Errorf("%w: %w", corruptErr{bad: true}, fsio.ErrTransient), ClassCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.err); got != tc.want {
				t.Fatalf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassNone: "none", ClassTransient: "transient",
		ClassPermanent: "permanent", ClassCorrupt: "corrupt",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if got := Class(9).String(); got != "Class(9)" {
		t.Errorf("Class(9).String() = %q", got)
	}
}

// instrumentedSleep collects the backoff schedule instead of sleeping.
func instrumentedSleep(delays *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *delays = append(*delays, d) }
}

func TestDoSucceedsAfterTransients(t *testing.T) {
	var delays []time.Duration
	var ctrs Counters
	calls := 0
	err := Do(Budget{Seed: 1, Sleep: instrumentedSleep(&delays)}, &ctrs, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flap %d: %w", calls, fsio.ErrTransient)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Fatalf("calls=%d delays=%v; want 3 calls, 2 delays", calls, delays)
	}
	s := ctrs.Snapshot()
	if s.Ops != 1 || s.Retries != 2 || s.GiveUps != 0 {
		t.Fatalf("counters %+v; want Ops=1 Retries=2 GiveUps=0", s)
	}
	// Backoff grows: second delay larger than first (jitter is ±20%,
	// multiplier 2, so growth dominates).
	if delays[1] <= delays[0] {
		t.Fatalf("backoff did not grow: %v", delays)
	}
}

func TestDoGivesUpAfterBudget(t *testing.T) {
	var ctrs Counters
	calls := 0
	base := errors.New("still down")
	err := Do(Budget{MaxAttempts: 3, Seed: 2, Sleep: func(time.Duration) {}}, &ctrs, func() error {
		calls++
		return fmt.Errorf("%w: %w", fsio.ErrTransient, base)
	})
	if err == nil || !errors.Is(err, fsio.ErrTransient) || !errors.Is(err, base) {
		t.Fatalf("give-up error %v must keep the cause chain", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	s := ctrs.Snapshot()
	if s.GiveUps != 1 || s.Retries != 2 {
		t.Fatalf("counters %+v; want GiveUps=1 Retries=2", s)
	}
}

func TestDoPermanentErrorNotRetried(t *testing.T) {
	var ctrs Counters
	calls := 0
	err := Do(Budget{Seed: 3}, &ctrs, func() error {
		calls++
		return fsio.ErrNotExist
	})
	if !errors.Is(err, fsio.ErrNotExist) {
		t.Fatalf("Do: %v", err)
	}
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls-1)
	}
	s := ctrs.Snapshot()
	if s.Retries != 0 || s.GiveUps != 0 {
		t.Fatalf("counters %+v; permanent failure is not a give-up", s)
	}
}

func TestDoCorruptErrorNotRetried(t *testing.T) {
	calls := 0
	err := Do(Budget{Seed: 4}, nil, func() error {
		calls++
		return fmt.Errorf("frame: %w", corruptErr{bad: true})
	})
	var cm interface{ Corrupt() bool }
	if !errors.As(err, &cm) {
		t.Fatalf("Do: %v", err)
	}
	if calls != 1 {
		t.Fatalf("corrupt error retried %d times", calls-1)
	}
}

func TestDoJitterDeterministicFromSeed(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		var delays []time.Duration
		_ = Do(Budget{MaxAttempts: 6, Seed: seed, Sleep: instrumentedSleep(&delays)}, nil, func() error {
			return fsio.ErrTransient
		})
		return delays
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds, identical schedules: %v", a)
	}
}

// TestDoBackoffReachesCap: the delays double from backoffBase until
// backoffCap stops them, and jitter never takes a delay past the cap's
// +20 %.
func TestDoBackoffReachesCap(t *testing.T) {
	var delays []time.Duration
	_ = Do(Budget{MaxAttempts: 10, Seed: 9, Sleep: instrumentedSleep(&delays)}, nil, func() error {
		return fsio.ErrTransient
	})
	if len(delays) != 9 {
		t.Fatalf("%d sleeps, want 9", len(delays))
	}
	nominal := backoffBase
	for i, d := range delays {
		if lo, hi := nominal*8/10, nominal*12/10; d < lo || d > hi {
			t.Errorf("sleep %d = %v, want %v ± 20 %%", i, d, nominal)
		}
		if d > 120*time.Millisecond {
			t.Errorf("sleep %d = %v exceeds 120ms", i, d)
		}
		// 2, 4, … 64 ms, then the cap: the last three sleeps sit at 100 ms,
		// where uncapped growth would give 128, 256 and 512.
		nominal = min(2*nominal, backoffCap)
	}
}

func TestDoWhileCustomPredicate(t *testing.T) {
	// tab7's shape: wait for a file another task will create. ErrNotExist
	// is permanent for Do but retryable for this wait.
	calls := 0
	err := DoWhile(Budget{MaxAttempts: 10, Seed: 5, Sleep: func(time.Duration) {}}, nil,
		func(err error) bool { return errors.Is(err, fsio.ErrNotExist) },
		func() error {
			calls++
			if calls < 4 {
				return fsio.ErrNotExist
			}
			return nil
		})
	if err != nil || calls != 4 {
		t.Fatalf("err=%v calls=%d; want success on 4th call", err, calls)
	}
}

func TestBudgetDefaults(t *testing.T) {
	for _, b := range []Budget{{}, {MaxAttempts: -1}} {
		if b.maxAttempts() != DefaultMaxAttempts {
			t.Errorf("%+v resolves to %d attempts, want DefaultMaxAttempts", b, b.maxAttempts())
		}
	}
	if (Budget{MaxAttempts: 1}).maxAttempts() != 1 {
		t.Error("MaxAttempts 1 must disable retries")
	}
}
