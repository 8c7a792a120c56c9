package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/simfs"
)

// noRealSleep is the unit-test retry budget.
func noRealSleep(maxAttempts int) *resil.Budget {
	return &resil.Budget{MaxAttempts: maxAttempts, Seed: 7, Sleep: func(time.Duration) {}}
}

// TestServeRetriesAbsorbFlakyBackend: with probabilistic transient faults
// on the physical files and a retry budget, every client read must succeed
// with byte identity, and the stats must show the absorbed retries.
func TestServeRetriesAbsorbFlakyBackend(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "s.sion", 6)

	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: 1234, ReadErrProb: 0.3})
	fl.SetEnabled(false) // metadata load in New is not under the retry path
	s, err := New(fl.Wrap(fsys, nil), "s.sion", &Config{
		CacheBytes: 1 << 20,
		Retry:      noRealSleep(12),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fl.SetEnabled(true)
	for r, want := range payloads {
		h, err := s.Open(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(h)
		if err != nil {
			t.Fatalf("rank %d under faults: %v", r, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rank %d: bytes differ under faults", r)
		}
	}
	st := s.Stats()
	if st.Retries == 0 {
		t.Fatalf("p=0.3 faults absorbed with zero retries: %+v (injected %d)", st, fl.Stats().Injected)
	}
	if st.GiveUps != 0 || st.Degraded != 0 || st.BreakerOpens != 0 {
		t.Fatalf("healthy-backend run degraded: %+v", st)
	}
}

// TestServeNopMetrics: a server on obs.Nop serves the right bytes with its
// stats off. Every Stats counter reads zero except Retries, which the
// retry layer counts for itself, and CachedBytes, the cache's own state.
func TestServeNopMetrics(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "n.sion", 4)
	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: 99, ReadErrProb: 0.3})
	fl.SetEnabled(false)
	s, err := New(fl.Wrap(fsys, nil), "n.sion", &Config{
		CacheBytes: 1 << 20, Retry: noRealSleep(12), Metrics: obs.Nop(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fl.SetEnabled(true)
	for pass := 0; pass < 2; pass++ { // misses, then hits
		for r, want := range payloads {
			h, err := s.Open(r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(h)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("pass %d, rank %d: read (%d bytes, %v), want its %d bytes", pass, r, len(got), err, len(want))
			}
		}
	}
	st := s.Stats()
	if st.Retries == 0 {
		t.Fatalf("p=0.3 faults absorbed with zero retries: %+v", st)
	}
	if st.CachedBytes == 0 {
		t.Fatalf("nothing resident after two passes: %+v", st)
	}
	st.Retries, st.CachedBytes = 0, 0
	if st != (Stats{}) {
		t.Fatalf("a Nop server counted: %+v", st)
	}
}

// TestServeZeroRetryOverhead pins the overhead guard: with no injection
// the retry/giveup/degraded counters stay exactly zero.
func TestServeZeroRetryOverhead(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "s.sion", 4)
	s, err := New(fsys, "s.sion", &Config{CacheBytes: 1 << 20, Retry: noRealSleep(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for r, want := range payloads {
		h, _ := s.Open(r)
		got, err := io.ReadAll(h)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	st := s.Stats()
	if st.Retries != 0 || st.GiveUps != 0 || st.Degraded != 0 || st.BreakerOpens != 0 {
		t.Fatalf("clean backend moved resilience counters: %+v", st)
	}
	if s.Degraded() {
		t.Fatalf("clean server reports degraded")
	}
}

// TestServeBreakerDegradesAndRecovers drives the full circuit lifecycle
// against a deterministic outage: consecutive give-ups open the breaker;
// while open, cached blocks still serve and uncached reads fail fast with
// ErrDegraded; once the outage lifts, the cooldown admits a half-open
// probe whose success closes the circuit and restores full service.
func TestServeBreakerDegradesAndRecovers(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "s.sion", 4)

	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: 77})
	const threshold, cooldown = 3, 5
	s, err := New(fl.Wrap(fsys, nil), "s.sion", &Config{
		CacheBytes:       1 << 20,
		BlockBytes:       256, // the FS block: rank 0's warm blocks hold none of rank 1's bytes
		Retry:            noRealSleep(2),
		BreakerThreshold: threshold,
		BreakerCooldown:  cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Warm the cache with rank 0 (lives in physical file 0 with the
	// two-file contiguous default mapping of writeMultifile).
	h0, err := s.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(h0); err != nil || !bytes.Equal(got, payloads[0]) {
		t.Fatalf("warm read: %v", err)
	}

	// Outage on physical file 0 from now on.
	phys := s.physNames[0]
	fl.SetRule(func(op fsio.Op) error {
		if op.Name != phys {
			return nil
		}
		return fmt.Errorf("%s: outage: %w", phys, fsio.ErrTransient)
	})

	// Cached blocks still serve while the backend is down.
	h0b, _ := s.Open(0)
	if got, err := io.ReadAll(h0b); err != nil || !bytes.Equal(got, payloads[0]) {
		t.Fatalf("cached read during outage: %v", err)
	}

	// Rank 1 also lives in file 0 but is uncached: each read gives up
	// after retries; `threshold` consecutive give-ups open the circuit.
	h1, _ := s.Open(1)
	for i := 0; i < threshold; i++ {
		if _, err := h1.ReadLogicalAt(make([]byte, 64), 0); err == nil {
			t.Fatalf("outage read %d succeeded", i)
		} else if errors.Is(err, ErrDegraded) {
			t.Fatalf("outage read %d degraded before threshold", i)
		}
	}
	if hl := s.Health(); hl[0].StateName != "open" {
		t.Fatalf("after %d give-ups file 0 is %q, want open (health %+v)", threshold, hl[0].StateName, hl)
	}
	if !s.Degraded() {
		t.Fatalf("server does not report degraded with an open breaker")
	}

	// Open circuit: uncached misses fail fast with the typed error, and
	// cache hits keep working.
	for i := 0; i < cooldown-1; i++ {
		_, err := h1.ReadLogicalAt(make([]byte, 64), 0)
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("open-circuit read %d: %v, want ErrDegraded", i, err)
		}
	}
	h0c, _ := s.Open(0)
	if got, err := io.ReadAll(h0c); err != nil || !bytes.Equal(got, payloads[0]) {
		t.Fatalf("cached read with open circuit: %v", err)
	}
	retriesDuringOpen := s.Stats().Retries

	// Outage ends. The next rejection finishes the cooldown (half-open);
	// the one after that is the probe, which succeeds and closes the
	// circuit.
	fl.SetRule(nil)
	if _, err := h1.ReadLogicalAt(make([]byte, 64), 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("cooldown-final read: %v, want ErrDegraded", err)
	}
	if hl := s.Health(); hl[0].StateName != "half-open" {
		t.Fatalf("after cooldown file 0 is %q, want half-open", hl[0].StateName)
	}
	probe := make([]byte, 64)
	if _, err := h1.ReadLogicalAt(probe, 0); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if !bytes.Equal(probe, payloads[1][:64]) {
		t.Fatalf("probe bytes differ")
	}
	if hl := s.Health(); hl[0].StateName != "closed" {
		t.Fatalf("after successful probe file 0 is %q, want closed", hl[0].StateName)
	}
	if s.Degraded() {
		t.Fatalf("recovered server still reports degraded")
	}

	// Full service restored, byte-identical.
	for r, want := range payloads {
		h, _ := s.Open(r)
		got, err := io.ReadAll(h)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("rank %d after recovery: %v", r, err)
		}
	}

	st := s.Stats()
	if st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}
	if st.Degraded == 0 || st.GiveUps == 0 {
		t.Fatalf("lifecycle left no degraded/give-up trace: %+v", st)
	}
	// Fail-fast means no backend retries were burned while the circuit
	// was open.
	if st.Retries != retriesDuringOpen {
		t.Fatalf("retries advanced during fail-fast window: %d -> %d", retriesDuringOpen, st.Retries)
	}
}

// TestServePermanentErrorsDontTrip: a permanent backend error (here: a
// physical file removed out from under the server, yielding not-exist on
// reopen-style errors — simulated via reading a truncated file through a
// fault-free wrapper) must neither retry nor open the breaker.
func TestServePermanentErrorsDontTrip(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	writeMultifile(t, fsys, "s.sion", 4)
	s, err := New(fsys, "s.sion", &Config{
		CacheBytes:       1 << 20,
		Retry:            noRealSleep(6),
		BreakerThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Reads past EOF are legal zero-filled short reads, not errors: the
	// breaker must stay closed and nothing retries.
	h, _ := s.Open(3)
	buf := make([]byte, 32)
	if _, err := h.ReadLogicalAt(buf, h.LogicalSize()); err != io.EOF {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
	st := s.Stats()
	if st.Retries != 0 || st.BreakerOpens != 0 {
		t.Fatalf("EOF handling moved resilience counters: %+v", st)
	}
}
