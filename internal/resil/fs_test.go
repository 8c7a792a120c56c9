package resil

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/simfs"
)

// noSleep is the unit-test budget: deterministic, no real delays.
func noSleep(maxAttempts int) Budget {
	return Budget{MaxAttempts: maxAttempts, Seed: 99, Sleep: func(time.Duration) {}}
}

// TestFSRetriesOverFlaky drives the resilient decorator over the flaky lab:
// with p=0.25 faults and a 6-attempt budget, a full write+read cycle must
// converge to byte identity, and the counters must show the retries.
func TestFSRetriesOverFlaky(t *testing.T) {
	sim := simfs.New(simfs.Jugene())
	fl := simfs.NewFlaky(simfs.FlakyConfig{
		Seed: 2026, ReadErrProb: 0.25, WriteErrProb: 0.25, MetaErrProb: 0.25,
	})
	var ctrs Counters
	rfs := Wrap(fl.Wrap(sim.View(0, nil), nil), noSleep(6), &ctrs)

	payload := bytes.Repeat([]byte("resilient!"), 1000)
	f, err := rfs.Create("data")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Chunked writes: ~100 distinct operations so the p=0.25 stream is
	// guaranteed to inject many faults for the budget to absorb.
	for off := 0; off < len(payload); off += 100 {
		if _, err := f.WriteAt(payload[off:off+100], int64(off)); err != nil {
			t.Fatalf("WriteAt @%d: %v", off, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if sz, err := f.Size(); err != nil || sz != int64(len(payload)) {
		t.Fatalf("Size = %d, %v; want %d", sz, err, len(payload))
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	g, err := rfs.Open("data")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := make([]byte, len(payload))
	for off := 0; off < len(got); off += 100 {
		if _, err := g.ReadAt(got[off:off+100], int64(off)); err != nil {
			t.Fatalf("ReadAt @%d: %v", off, err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read-back bytes differ")
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s := ctrs.Snapshot()
	if s.Retries == 0 {
		t.Fatalf("p=0.25 injection produced zero retries: %+v (injected %d)",
			s, fl.Stats().Injected)
	}
	if s.GiveUps != 0 {
		t.Fatalf("6-attempt budget gave up under p=0.25: %+v", s)
	}
	if fl.Stats().Injected == 0 {
		t.Fatalf("flaky lab injected nothing; test proves nothing")
	}
}

// TestFSGivesUpUnderOutage pins the bounded side: a hard outage longer
// than any budget must surface a transient give-up, not hang.
func TestFSGivesUpUnderOutage(t *testing.T) {
	sim := simfs.New(simfs.Jugene())
	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: 5})
	var ctrs Counters
	rfs := Wrap(fl.Wrap(sim.View(0, nil), nil), noSleep(4), &ctrs)

	f, err := rfs.Create("out")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	fl.SetRule(func(op fsio.Op) error {
		if op.Name != "out" {
			return nil
		}
		return fmt.Errorf("outage: %w", fsio.ErrTransient)
	})
	_, err = f.WriteAt([]byte("x"), 0)
	if !errors.Is(err, fsio.ErrTransient) {
		t.Fatalf("outage write error %v must stay classified transient", err)
	}
	if ctrs.GiveUps.Load() != 1 || ctrs.Retries.Load() != 3 {
		t.Fatalf("counters %+v; want 3 retries then 1 give-up", ctrs.Snapshot())
	}
	// Permanent errors pass through untouched and unretried.
	before := ctrs.Retries.Load()
	if _, err := rfs.Open("never-created"); !errors.Is(err, fsio.ErrNotExist) {
		t.Fatalf("Open missing: %v", err)
	}
	if ctrs.Retries.Load() != before {
		t.Fatalf("ErrNotExist was retried")
	}
}

// TestFSVectoredReadIsOneRetriedOp: a vectored read through a resilient
// file is one operation under the budget. simfs has no vectored read, so
// neither has the flaky lab over it nor the resilient file over that: the
// call reaches the resilient ReadAt through fsio.ReadvAt's fallback, and
// the faults injected below it are absorbed there.
func TestFSVectoredReadIsOneRetriedOp(t *testing.T) {
	sim := simfs.New(simfs.Jugene())
	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: 3})
	var ctrs Counters
	rfs := Wrap(fl.Wrap(sim.View(0, nil), nil), noSleep(4), &ctrs)
	payload := bytes.Repeat([]byte("vectored"), 100)
	f, err := rfs.Create("v")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if _, ok := f.(fsio.VectorReaderAt); ok {
		t.Fatal("the resilient file claims a vectored read its backend lacks")
	}
	fails := 2 // the next two attempts fail
	fl.SetRule(func(fsio.Op) error {
		if fails == 0 {
			return nil
		}
		fails--
		return fmt.Errorf("busy: %w", fsio.ErrTransient)
	})
	before := ctrs.Snapshot()
	bufs := [][]byte{make([]byte, 300), make([]byte, 500)}
	if n, err := fsio.ReadvAt(f, bufs, 0); n != 800 || err != nil {
		t.Fatalf("ReadvAt = (%d, %v), want (800, nil)", n, err)
	}
	if !bytes.Equal(append(bufs[0], bufs[1]...), payload) {
		t.Fatal("ReadvAt bytes differ")
	}
	if got := ctrs.Snapshot(); got.Ops-before.Ops != 1 || got.Retries-before.Retries != 2 {
		t.Fatalf("one ReadvAt over two faults: %+v -> %+v, want 1 op and 2 retries", before, got)
	}
}

// TestFSZeroOverheadPath: with no injection every op succeeds first try and
// the retry counters stay zero — the overhead guard tab8 also asserts.
func TestFSZeroOverheadPath(t *testing.T) {
	sim := simfs.New(simfs.Jugene())
	var ctrs Counters
	rfs := Wrap(sim.View(0, nil), noSleep(4), &ctrs)
	f, err := rfs.Create("quiet")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s := ctrs.Snapshot()
	if s.Retries != 0 || s.GiveUps != 0 {
		t.Fatalf("clean backend produced retries: %+v", s)
	}
	if s.Ops == 0 {
		t.Fatalf("ops not counted")
	}
	if u, ok := rfs.(fsio.Unwrapper); !ok || u.Unwrap() == nil {
		t.Fatalf("the resilient file system hides what it wraps")
	}
}
