package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/simfs"
)

// TestCacheConcurrentChecker runs the cache protocol between goroutines:
// readers of mixed windows — smaller than an FS block (always admitted),
// around one (partial frames), and larger than a cache block (admitted by
// frequency, or read around) — on a cache of three blocks per shard, over
// a backend that fails a read now and then. Each round starts with every
// reader on the same window smaller than an FS block, which the cache
// admits, and nobody goes on until all have read it, so a failed fill's
// waiters depend on its abort to wake them; then each reads windows of its
// own. Every delivered
// byte must be the file's (race builds poison a frame when it is recycled,
// so one handed out under a reader's pin shows), a failure must be the
// backend's transient error, and no goroutine may outlive Close.
func TestCacheConcurrentChecker(t *testing.T) {
	base := runtime.NumGoroutine()
	inner := fsio.NewOS(t.TempDir())
	const fsblk = 1 << 10
	raw := writeOneFile(t, inner, "c.sion", 8, 32<<10, fsblk)
	// Latency spikes hold a filler's read long enough for the other
	// readers of its block to park on it.
	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: 36, ReadErrProb: 0.15, LatencyProb: 0.2, LatencySecs: 0.0005})
	sleep := func(sec float64) { time.Sleep(time.Duration(sec * float64(time.Second))) }
	fl.SetEnabled(false) // until the layout is loaded
	s, err := New(fl.Wrap(inner, sleep), "c.sion", &Config{
		CacheBytes: 2 * 3 * 4 * fsblk, BlockBytes: 4 * fsblk, Shards: 2,
		Retry: noRealSleep(1), BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.SetEnabled(true)
	const readers, rounds, own = 8, 120, 4
	sizes := []int64{100, fsblk + 500, 4 * fsblk, 9 * fsblk, 20 * fsblk}
	size := int64(len(raw))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures int
	)
	start := make([]chan struct{}, 2*rounds) // two barriers a round
	for r := range start {
		start[r] = make(chan struct{})
	}
	arrived := make(chan struct{}, readers)
	read := func(off, n int64) {
		p := bytes.Repeat([]byte{0xAA}, int(n))
		err := s.ReadFileAt(0, p, off, nil)
		switch {
		case err == nil:
			if !bytes.Equal(p, wantWindow(raw, off, n)) {
				t.Errorf("%d bytes at %d differ from the file", n, off)
			}
		case errors.Is(err, fsio.ErrTransient):
			mu.Lock()
			failures++
			mu.Unlock()
		default:
			t.Errorf("%d bytes at %d: %v", n, off, err)
		}
	}
	shared := rand.New(rand.NewSource(36))
	windows := make([][2]int64, rounds)
	for r := range windows {
		n := 1 + shared.Int63n(fsblk-1)
		windows[r] = [2]int64{shared.Int63n(size - n), n}
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				arrived <- struct{}{}
				<-start[2*r]
				read(windows[r][0], windows[r][1])
				arrived <- struct{}{}
				<-start[2*r+1]
				for i := 0; i < own; i++ {
					n := sizes[rng.Intn(len(sizes))]
					read(rng.Int63n(size-n/2), n)
				}
			}
		}(g)
	}
	// The rounds' barrier: a reader parked for good stops the others at
	// the next round, and the run at the deadline.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range start {
			for g := 0; g < readers; g++ {
				<-arrived
			}
			close(start[r])
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("readers did not finish; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if t.Failed() {
		t.FailNow()
	}
	st := s.Stats()
	if st.Evictions == 0 || st.ReadAround == 0 || st.Hits == 0 || failures == 0 {
		t.Fatalf("the run did not exercise the protocol: %d failed reads, %+v", failures, st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}
