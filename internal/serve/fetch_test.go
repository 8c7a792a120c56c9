package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsio"
	"repro/internal/resil"
	"repro/internal/simfs"
)

// readFault is a rule that fails every read overlapping [lo, hi) with
// err — the minimal tool for making concurrent requests fail differently.
func readFault(lo, hi int64, err error) func(fsio.Op) error {
	return func(op fsio.Op) error {
		if strings.HasPrefix(op.Call, "Read") && op.Off < hi && op.Off+op.Len > lo {
			return err
		}
		return nil
	}
}

// TestFetchPerSpanErrors pins the per-request error attribution of
// concurrent misses on one physical file: when two requests' spans fail
// with different errors, each request is answered with the error that
// covered its own blocks — not with whichever span happened to fail first
// — and a request whose blocks all materialized still succeeds alongside
// the failures.
func TestFetchPerSpanErrors(t *testing.T) {
	inner := fsio.NewOS(t.TempDir())
	writeMultifile(t, inner, "e.sion", 4)
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	s, err := New(fl.Wrap(inner, nil), "e.sion", &Config{
		CacheBytes: 1 << 20,
		BlockBytes: 256, // the FS block: blocks 0, 4 and 8 lie inside physical file 0
		MaxSpanGap: -1,  // merge only adjacent blocks: distinct blocks = distinct spans
		Retry:      &resil.Budget{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bs := s.BlockBytes()

	errA := fmt.Errorf("span A is down: %w", fsio.ErrTransient)
	errB := errors.New("span B is corrupt") // permanent: no ErrTransient wrap
	// Block 0 fails with errA, block 8 with errB.
	failA, failB := readFault(0*bs, 1*bs, errA), readFault(8*bs, 9*bs, errB)
	fl.SetRule(func(op fsio.Op) error {
		if err := failA(op); err != nil {
			return err
		}
		return failB(op)
	})

	type result struct {
		data []byte
		err  error
	}
	var resA, resB, resOK result
	var start, wg sync.WaitGroup
	start.Add(1)
	for _, req := range []struct {
		block int64
		res   *result
	}{{0, &resA}, {8, &resB}, {4, &resOK}} {
		req := req
		wg.Add(1)
		go func() {
			defer wg.Done()
			req.res.data = make([]byte, bs)
			start.Wait()
			req.res.err = s.ReadFileAt(0, req.res.data, req.block*bs, nil)
		}()
	}
	start.Done()
	wg.Wait()
	if !errors.Is(resA.err, errA) {
		t.Fatalf("request for block 0 got %v, want its own span error %v", resA.err, errA)
	}
	if errors.Is(resA.err, errB) {
		t.Fatalf("request for block 0 was attributed span B's error: %v", resA.err)
	}
	if !errors.Is(resB.err, errB) {
		t.Fatalf("request for block 8 got %v, want its own span error %v", resB.err, errB)
	}
	if errors.Is(resB.err, errA) {
		t.Fatalf("request for block 8 was attributed span A's error: %v", resB.err)
	}
	// The misclassification the bug caused: block 8's failure is permanent,
	// and must not look transient because span A failed transiently first.
	if c := resil.Classify(resB.err); c != resil.ClassPermanent {
		t.Fatalf("request for block 8 classified %v, want permanent", c)
	}
	if c := resil.Classify(resA.err); c != resil.ClassTransient {
		t.Fatalf("request for block 0 classified %v, want transient", c)
	}
	if resOK.err != nil {
		t.Fatalf("request for healthy block 4 failed alongside the batch: %v", resOK.err)
	}
	want := make([]byte, bs)
	fh, err := inner.Open(s.physNames[0])
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if _, err := fh.ReadAt(want, 4*bs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resOK.data, want) {
		t.Fatalf("healthy block 4 materialized the wrong bytes")
	}
	if got := s.Stats().ServedBytes; got != bs {
		t.Fatalf("ServedBytes = %d, want %d: the two failed reads served nothing", got, bs)
	}
}

// TestAbortedReservationsKeepTheLedger: the frames reserved for a span that
// fails, and for a request the breaker rejects, are aborted — afterwards
// the cache charges exactly its resident blocks, and the next miss reads
// into the aborted frames instead of allocating new ones.
func TestAbortedReservationsKeepTheLedger(t *testing.T) {
	inner := fsio.NewOS(t.TempDir())
	raw := writeOneFile(t, inner, "l.sion", 4, 8<<10, 256)
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	s, err := New(fl.Wrap(inner, nil), "l.sion", &Config{
		CacheBytes:       1 << 20, // nothing is evicted: the free list holds only aborted frames
		BlockBytes:       256,
		Shards:           1,
		MaxSpanGap:       -1,
		Retry:            &resil.Budget{MaxAttempts: 1},
		BreakerThreshold: 1, // the failed span opens the circuit
		BreakerCooldown:  1, // the one rejection after it admits the probe
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bs := s.BlockBytes()
	sh := &s.cache.shards[0]
	read := func(block, n int64) error {
		t.Helper()
		p := make([]byte, n*bs)
		err := s.ReadFileAt(0, p, block*bs, nil)
		if err == nil && !bytes.Equal(p, wantWindow(raw, block*bs, n*bs)) {
			t.Fatalf("blocks [%d, %d) differ from the file", block, block+n)
		}
		return err
	}
	ledger := func(when string) (free map[*byte]bool) {
		t.Helper()
		free = map[*byte]bool{}
		for e := sh.free; e != nil; e = e.next {
			free[&e.data[0]] = true
		}
		if got, want := s.Stats().CachedBytes, int64(len(sh.items))*bs; got != want {
			t.Fatalf("%s: CachedBytes = %d, want %d resident blocks × %d", when, got, len(sh.items), bs)
		}
		return free
	}

	if err := read(0, 4); err != nil {
		t.Fatal(err)
	}
	fl.SetRule(readFault(8*bs, 12*bs, fmt.Errorf("blocks 8-11 are down: %w", fsio.ErrTransient)))
	if err := read(8, 4); err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("read of the failing span: %v, want its backend error", err)
	}
	aborted := ledger("after a failed span")
	if len(aborted) != 4 {
		t.Fatalf("%d frames on the free list after a failed 4-block span, want 4", len(aborted))
	}
	if err := read(16, 2); !errors.Is(err, ErrDegraded) {
		t.Fatalf("read with the circuit open: %v, want ErrDegraded", err)
	}
	if free := ledger("after an ErrDegraded rejection"); len(free) != 4 {
		t.Fatalf("%d frames on the free list after the rejection, want the same 4", len(free))
	}

	fl.SetRule(nil)
	if err := read(8, 4); err != nil { // the half-open probe
		t.Fatalf("probe read: %v", err)
	}
	ledger("after the probe")
	for b := int64(8); b < 12; b++ {
		e := sh.items[blockKey{0, b}]
		if e == nil || !aborted[&e.data[0]] {
			t.Fatalf("block %d was not read into an aborted frame", b)
		}
	}
	if sh.free != nil || len(sh.items) != 8 {
		t.Fatalf("after the probe: %d resident, free list empty %v; want 8 resident and no free frame", len(sh.items), sh.free == nil)
	}
}

// TestPeerFillSkipsBackend pins the peer-fill fetch path: a node whose
// PeerFill hook can produce a block caches it without issuing any backend
// read, serves it byte-identically, and counts it in Stats.PeerFills.
func TestPeerFillSkipsBackend(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "p.sion", 4)

	a, err := New(fsys, "p.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(fsys, "p.sion", &Config{
		CacheBytes: 1 << 20,
		PeerFill:   func(file int, block int64, dst []byte, from int64) bool { return a.Peek(file, block, dst, from) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Warm node a with rank 0's whole stream.
	ha, err := a.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads[0]
	got := make([]byte, len(want))
	if _, err := ha.ReadLogicalAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("node a: bytes differ")
	}
	if n := a.Stats().BackendReads; n == 0 {
		t.Fatal("node a issued no backend reads warming up")
	}

	// Node b reads the same rank: every miss must fill from a's cache.
	warm := a.Stats()
	hb, err := b.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len(want))
	if _, err := hb.ReadLogicalAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("node b: peer-filled bytes differ")
	}
	st := b.Stats()
	if st.BackendReads != 0 {
		t.Fatalf("node b issued %d backend reads despite peer fill", st.BackendReads)
	}
	if st.PeerFills == 0 {
		t.Fatal("node b counted no peer fills")
	}
	// Those fills were resident Peeks of a: lookups, but not a's hits or misses.
	if st := a.Stats(); st.Hits != warm.Hits || st.Misses != warm.Misses {
		t.Fatalf("resident Peeks moved node a's counters: hits %d -> %d, misses %d -> %d",
			warm.Hits, st.Hits, warm.Misses, st.Misses)
	}
	// Peek is passive: asking for an uncached block is not a miss.
	misses := a.Stats().Misses
	if a.Peek(0, 1<<30, make([]byte, 8), 0) {
		t.Fatal("Peek invented a block")
	}
	if a.Peek(-1, 0, make([]byte, 8), 0) {
		t.Fatal("Peek accepted a negative file index")
	}
	if got := a.Stats().Misses; got != misses {
		t.Fatalf("Peek moved the miss counter %d -> %d", misses, got)
	}
}
