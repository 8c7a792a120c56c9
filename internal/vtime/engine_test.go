package vtime

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSingleProcAdvance(t *testing.T) {
	e := NewEngine()
	var end float64
	e.Spawn(0, func(p *Proc) {
		p.Advance(1.5)
		p.Advance(2.5)
		end = p.Now()
	})
	e.Run()
	if end != 4.0 {
		t.Fatalf("end time = %g, want 4.0", end)
	}
}

func TestSpawnStartTime(t *testing.T) {
	e := NewEngine()
	var got float64
	e.Spawn(3.25, func(p *Proc) { got = p.Now() })
	e.Run()
	if got != 3.25 {
		t.Fatalf("start time = %g, want 3.25", got)
	}
}

// Processes must interleave strictly in virtual-time order.
func TestDeterministicOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	// Proc 0 acts at t=0,2,4; proc 1 at t=1,3,5.
	e.Spawn(0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, 0)
			p.Advance(2)
		}
	})
	e.Spawn(1, func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, 1)
			p.Advance(2)
		}
	})
	e.Run()
	want := []int{0, 1, 0, 1, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Equal wake times must be broken by process id.
func TestTieBreakByID(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(1.0, func(p *Proc) { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending ids", order)
		}
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine()
	var consumer *Proc
	var got float64
	consumer = e.Spawn(0, func(p *Proc) {
		got = p.Block()
	})
	e.Spawn(0, func(p *Proc) {
		p.Advance(5)
		p.WakeAt(consumer, 7) // message arrives at t=7
	})
	e.Run()
	if got != 7 {
		t.Fatalf("consumer resumed at %g, want 7", got)
	}
}

// WakeAt in the waker's past must not move the sleeper backwards.
func TestWakePastClampsToNow(t *testing.T) {
	e := NewEngine()
	var sleeper *Proc
	var got float64
	sleeper = e.Spawn(10, func(p *Proc) { got = p.Block() })
	e.Spawn(0, func(p *Proc) {
		p.Advance(20)
		p.WakeAt(sleeper, 3) // in sleeper's past
	})
	e.Run()
	if got != 10 {
		t.Fatalf("sleeper resumed at %g, want its own time 10", got)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := NewEngine()
	panicked := make(chan bool, 1)
	e.Spawn(0, func(p *Proc) {
		defer func() {
			panicked <- recover() != nil
			// Re-panic is swallowed; the proc exits via the deferred return.
		}()
		p.Advance(-1)
	})
	e.Run()
	if !<-panicked {
		t.Fatal("Advance(-1) did not panic")
	}
}

// TestDeadlockPanics blocks more processes than the diagnostic lists:
// Run panics naming the first 16 ids only.
func TestDeadlockPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if want := "blocked ids (first 16): [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]"; !strings.Contains(msg, want) {
			t.Fatalf("deadlocked Run panicked with %q, want it to contain %q", msg, want)
		}
	}()
	e := NewEngine()
	for i := 0; i < 20; i++ {
		e.Spawn(0, func(p *Proc) { p.Block() }) // nobody will wake them
	}
	e.Run()
}

// TestMisusePanics reaches each misuse check: waking a process that is
// not blocked, and a negative service time on a Server.
func TestMisusePanics(t *testing.T) {
	panics := func(f func()) (ok bool) {
		defer func() { ok = recover() != nil }()
		f()
		return false
	}
	s := NewServer("s")
	e := NewEngine()
	var wake, use bool
	e.Spawn(0, func(p *Proc) {
		wake = panics(func() { p.WakeAt(p, 1) })
		use = panics(func() { s.Use(p, -1) })
	})
	e.Run()
	for name, ok := range map[string]bool{"WakeAt on a running process": wake, "Use(-1)": use, "Reserve(0, -1)": panics(func() { s.Reserve(0, -1) })} {
		if !ok {
			t.Errorf("%s did not panic", name)
		}
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	e := NewEngine()
	var childTime float64
	e.Spawn(0, func(p *Proc) {
		p.Advance(2)
		p.e.Spawn(p.Now()+1, func(c *Proc) { childTime = c.Now() })
		p.Advance(10)
	})
	e.Run()
	if childTime != 3 {
		t.Fatalf("child started at %g, want 3", childTime)
	}
}

func TestServerFIFOSerialization(t *testing.T) {
	e := NewEngine()
	s := NewServer("disk")
	ends := make([]float64, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(0, func(p *Proc) {
			s.Use(p, 2.0)
			ends[i] = p.Now()
		})
	}
	e.Run()
	want := []float64{2, 4, 6}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if s.avail != 6 {
		t.Fatalf("avail = %g, want 6", s.avail)
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	s := NewServer("disk")
	var end float64
	e.Spawn(0, func(p *Proc) {
		s.Use(p, 1)
		p.Advance(10) // server idle from t=1 to t=11
		s.Use(p, 1)
		end = p.Now()
	})
	e.Run()
	if end != 12 {
		t.Fatalf("end = %g, want 12", end)
	}
}

// Property: clocks never decrease, and the server is not free before it
// has served the sum of the service demands, whatever the arrival pattern.
func TestServerBusyConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		e := NewEngine()
		s := NewServer("x")
		var total float64
		demands := make([][]float64, n)
		for i := range demands {
			k := 1 + rng.Intn(5)
			demands[i] = make([]float64, k)
			for j := range demands[i] {
				demands[i][j] = rng.Float64() * 3
				total += demands[i][j]
			}
		}
		ok := true
		for i := 0; i < n; i++ {
			i := i
			e.Spawn(rng.Float64(), func(p *Proc) {
				last := p.Now()
				for _, d := range demands[i] {
					s.Use(p, d)
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		e.Run()
		return ok && s.avail >= total-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with simultaneous arrivals, completion time of the k-th request
// equals the running sum of service times (strict FIFO by id).
func TestServerStrictFIFOProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		e := NewEngine()
		s := NewServer("y")
		ends := make([]float64, len(raw))
		for i, b := range raw {
			i, d := i, float64(b%17)+1
			e.Spawn(0, func(p *Proc) {
				s.Use(p, d)
				ends[i] = p.Now()
			})
		}
		e.Run()
		sum := 0.0
		for i, b := range raw {
			sum += float64(b%17) + 1
			if abs(ends[i]-sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsScale(t *testing.T) {
	const n = 20000
	e := NewEngine()
	var count int64
	s := NewServer("meta")
	for i := 0; i < n; i++ {
		e.Spawn(0, func(p *Proc) {
			s.Use(p, 0.001)
			atomic.AddInt64(&count, 1)
		})
	}
	e.Run()
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	if abs(s.avail-n*0.001) > 1e-6 {
		t.Fatalf("avail = %g, want %g", s.avail, n*0.001)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestServerReserveParallelFanout(t *testing.T) {
	// One operation fanned over three servers completes at the max of the
	// per-server completion times, not their sum.
	e := NewEngine()
	s1, s2, s3 := NewServer("a"), NewServer("b"), NewServer("c")
	var end float64
	e.Spawn(0, func(p *Proc) {
		t1 := s1.Reserve(p.Now(), 1.0)
		t2 := s2.Reserve(p.Now(), 3.0)
		t3 := s3.Reserve(p.Now(), 2.0)
		max := t1
		if t2 > max {
			max = t2
		}
		if t3 > max {
			max = t3
		}
		p.AdvanceTo(max)
		end = p.Now()
	})
	e.Run()
	if end != 3.0 {
		t.Fatalf("fan-out completion = %g, want 3.0", end)
	}
}

func TestServerReset(t *testing.T) {
	e := NewEngine()
	s := NewServer("x")
	e.Spawn(0, func(p *Proc) {
		s.Use(p, 5)
	})
	e.Run()
	if s.avail != 5 {
		t.Fatalf("pre-reset state: avail=%g", s.avail)
	}
	s.Reset()
	if s.avail != 0 {
		t.Fatal("Reset did not clear the server")
	}
}

func TestRunTwicePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn(0, func(p *Proc) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	e.Run()
}
