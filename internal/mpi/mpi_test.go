package mpi

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

// runBoth runs body under both the real and the simulated runtime, so every
// test exercises both code paths.
func runBoth(t *testing.T, n int, body func(*Comm)) {
	t.Helper()
	t.Run("real", func(t *testing.T) { Run(n, body) })
	t.Run("sim", func(t *testing.T) { RunSim(vtime.NewEngine(), n, DefaultCost, body) })
}

func TestSendRecvPair(t *testing.T) {
	runBoth(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("ping"))
			if got := c.Recv(1, 8); string(got) != "pong" {
				t.Errorf("got %q", got)
			}
		} else {
			if got := c.Recv(0, 7); string(got) != "ping" {
				t.Errorf("got %q", got)
			}
			c.Send(0, 8, []byte("pong"))
		}
	})
}

func TestSendBuffersAreCopied(t *testing.T) {
	runBoth(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte("aaaa")
			c.Send(1, 0, buf)
			copy(buf, "XXXX") // must not affect the delivered message
			c.Barrier()
		} else {
			c.Barrier()
			if got := c.Recv(0, 0); string(got) != "aaaa" {
				t.Errorf("got %q, want aaaa (send must copy)", got)
			}
		}
	})
}

func TestMessageOrderingSameKey(t *testing.T) {
	runBoth(t, 2, func(c *Comm) {
		const k = 20
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				if got := c.Recv(0, 3); got[0] != byte(i) {
					t.Errorf("message %d: got %d", i, got[0])
				}
			}
		}
	})
}

func TestTagsDoNotCross(t *testing.T) {
	runBoth(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("one"))
			c.Send(1, 2, []byte("two"))
		} else {
			// Receive in reverse tag order.
			if got := c.Recv(0, 2); string(got) != "two" {
				t.Errorf("tag2 got %q", got)
			}
			if got := c.Recv(0, 1); string(got) != "one" {
				t.Errorf("tag1 got %q", got)
			}
		}
	})
}

func TestBarrierCounts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var before, after int64
			runBoth(t, n, func(c *Comm) {
				atomic.AddInt64(&before, 1)
				c.Barrier()
				if v := atomic.LoadInt64(&before); int(v)%int64size(n) != 0 && v < int64(n) {
					// All ranks must have incremented before any passes.
					t.Errorf("barrier passed with before=%d of %d", v, n)
				}
				atomic.AddInt64(&after, 1)
			})
		})
	}
}

func int64size(n int) int { return n } // clarity helper for the modulo above

func TestBcastAllRoots(t *testing.T) {
	const n = 7
	for root := 0; root < n; root++ {
		root := root
		runBoth(t, n, func(c *Comm) {
			var payload []byte
			if c.Rank() == root {
				payload = []byte(fmt.Sprintf("from-%d", root))
			}
			got := c.Bcast(root, payload)
			want := fmt.Sprintf("from-%d", root)
			if string(got) != want {
				t.Errorf("rank %d: got %q want %q", c.Rank(), got, want)
			}
		})
	}
}

func TestGathervScattervRoundTrip(t *testing.T) {
	const n = 9
	runBoth(t, n, func(c *Comm) {
		mine := bytes.Repeat([]byte{byte(c.Rank() + 1)}, c.Rank()+1)
		parts := c.Gatherv(2, mine)
		if c.Rank() == 2 {
			for r, p := range parts {
				want := bytes.Repeat([]byte{byte(r + 1)}, r+1)
				if !bytes.Equal(p, want) {
					t.Errorf("gathered[%d] = %v", r, p)
				}
			}
		} else if parts != nil {
			t.Errorf("non-root got parts")
		}
		// Scatter back.
		back := c.Scatterv(2, parts)
		if !bytes.Equal(back, mine) {
			t.Errorf("rank %d scatter∘gather != id: %v", c.Rank(), back)
		}
	})
}

func TestAllreduce(t *testing.T) {
	const n = 10
	runBoth(t, n, func(c *Comm) {
		sum := c.AllreduceInt64(OpSum, int64(c.Rank()+1))
		if sum != n*(n+1)/2 {
			t.Errorf("sum = %d", sum)
		}
		max := c.AllreduceInt64(OpMax, int64(c.Rank()))
		if max != n-1 {
			t.Errorf("max = %d", max)
		}
		min := c.AllreduceInt64(OpMin, int64(c.Rank()+5))
		if min != 5 {
			t.Errorf("min = %d", min)
		}
	})
}

func TestSplitEvenOdd(t *testing.T) {
	const n = 11
	runBoth(t, n, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		wantSize := (n + 1) / 2
		if c.Rank()%2 == 1 {
			wantSize = n / 2
		}
		if sub.Size() != wantSize {
			t.Errorf("rank %d: sub size = %d want %d", c.Rank(), sub.Size(), wantSize)
		}
		if sub.group[sub.rank] != c.Rank() {
			t.Errorf("global rank mismatch")
		}
		// Sub-communicator collectives work and don't cross groups.
		sum := sub.AllreduceInt64(OpSum, int64(c.Rank()))
		want := int64(0)
		for r := 0; r < n; r++ {
			if r%2 == c.Rank()%2 {
				want += int64(r)
			}
		}
		if sum != want {
			t.Errorf("rank %d: sub sum = %d want %d", c.Rank(), sum, want)
		}
	})
}

func TestSplitNegativeColor(t *testing.T) {
	runBoth(t, 4, func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Errorf("negative color must yield nil comm")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		sub.Barrier()
	})
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	const n = 5
	runBoth(t, n, func(c *Comm) {
		// Reverse the order via key.
		sub := c.Split(0, n-c.Rank())
		if sub.Rank() != n-1-c.Rank() {
			t.Errorf("rank %d: sub rank = %d, want %d", c.Rank(), sub.Rank(), n-1-c.Rank())
		}
	})
}

func TestTypedHelpers(t *testing.T) {
	const n = 6
	runBoth(t, n, func(c *Comm) {
		got := c.BcastInt64s(1, []int64{7, 8, 9})
		if len(got) != 3 || got[0] != 7 || got[2] != 9 {
			t.Errorf("bcast got %v", got)
		}
		slices := c.GatherInt64Slice(0, []int64{int64(c.Rank()), int64(c.Rank() + 1)})
		if c.Rank() == 0 {
			for r, s := range slices {
				if len(s) != 2 || s[0] != int64(r) || s[1] != int64(r+1) {
					t.Errorf("slices[%d] = %v", r, s)
				}
			}
		}
	})
}

// Simulated-time semantics: a barrier must advance every clock to at least
// the latest entry time.
func TestSimBarrierTime(t *testing.T) {
	e := vtime.NewEngine()
	const n = 4
	times := make([]float64, n)
	RunSim(e, n, DefaultCost, func(c *Comm) {
		c.Advance(float64(c.Rank())) // rank r enters at t=r
		c.Barrier()
		times[c.Rank()] = c.Now()
	})
	for r, ts := range times {
		if ts < float64(n-1) {
			t.Errorf("rank %d passed barrier at %g, before slowest entry %d", r, ts, n-1)
		}
	}
}

// Simulated message cost: a 1 MB transfer at 400 MB/s should take ~2.5 ms.
func TestSimTransferCost(t *testing.T) {
	e := vtime.NewEngine()
	var recvT float64
	RunSim(e, 2, CostModel{Latency: 1e-3, Bandwidth: 400e6}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 1<<20))
		} else {
			c.Recv(0, 0)
			recvT = c.Now()
		}
	})
	want := 1e-3 + float64(1<<20)/400e6
	if recvT < want*0.99 || recvT > want*1.5 {
		t.Errorf("recv completed at %g, want ≈ %g", recvT, want)
	}
}

// Determinism: the same simulated program must produce identical final
// clocks across runs.
func TestSimDeterminism(t *testing.T) {
	run := func() []float64 {
		e := vtime.NewEngine()
		const n = 8
		out := make([]float64, n)
		RunSim(e, n, DefaultCost, func(c *Comm) {
			for i := 0; i < 3; i++ {
				c.AllreduceInt64(OpSum, int64(c.Rank()))
				sub := c.Split(c.Rank()%2, c.Rank())
				sub.Barrier()
			}
			out[c.Rank()] = c.Now()
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic sim: run1[%d]=%g run2[%d]=%g", i, a[i], i, b[i])
		}
	}
}

// Property: gather∘scatter is the identity for arbitrary payloads.
func TestGatherScatterProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		n := len(payloads)
		if n == 0 || n > 12 {
			return true
		}
		ok := int64(1)
		Run(n, func(c *Comm) {
			parts := c.Gatherv(0, payloads[c.Rank()])
			got := c.Scatterv(0, parts)
			if !bytes.Equal(got, payloads[c.Rank()]) {
				atomic.StoreInt64(&ok, 0)
			}
		})
		return ok == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSimWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("large world in -short mode")
	}
	e := vtime.NewEngine()
	const n = 4096
	var sum int64
	RunSim(e, n, DefaultCost, func(c *Comm) {
		v := c.AllreduceInt64(OpSum, 1)
		if c.Rank() == 0 {
			sum = v
		}
	})
	if sum != n {
		t.Fatalf("sum = %d", sum)
	}
}

func TestInvalidRankPanics(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for _, fn := range []func(){
			func() { c.Send(5, 0, nil) },
			func() { c.Recv(-1, 0) },
			func() { c.Bcast(9, nil) },
			func() { c.Scatterv(0, [][]byte{nil}) }, // wrong part count
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("invalid argument did not panic")
					}
				}()
				fn()
			}()
		}
	})
}

func TestGlobalRankThroughSplit(t *testing.T) {
	runBoth(t, 6, func(c *Comm) {
		sub := c.Split(c.Rank()/3, c.Rank())
		if sub.group[sub.rank] != c.Rank() {
			t.Errorf("global rank lost through split: %d vs %d", sub.group[sub.rank], c.Rank())
		}
		// Nested split.
		subsub := sub.Split(sub.Rank()%2, 0)
		if subsub.group[subsub.rank] != c.Rank() {
			t.Errorf("global rank lost through nested split")
		}
	})
}

func TestTryRecv(t *testing.T) {
	runBoth(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			// Nothing sent yet: must not block and must report absence.
			if _, ok := c.TryRecv(1, 5); ok {
				t.Error("TryRecv returned a message before any send")
			}
			c.Send(1, 4, nil) // let rank 1 proceed
			// Wait for the data to be sent, then poll until it arrives.
			c.Recv(1, 6)
			for {
				if got, ok := c.TryRecv(1, 5); ok {
					if string(got) != "payload" {
						t.Errorf("TryRecv got %q", got)
					}
					break
				}
				// In sim mode the message may still be in flight: advance
				// past its arrival time instead of spinning.
				c.Advance(1e-3)
			}
			// Queue drained.
			if _, ok := c.TryRecv(1, 5); ok {
				t.Error("TryRecv returned a second message")
			}
		} else {
			c.Recv(0, 4)
			c.Send(0, 5, []byte("payload"))
			c.Send(0, 6, nil)
		}
	})
}

// In simulated mode TryRecv must not deliver a message whose virtual
// arrival time is still in the receiver's future.
func TestTryRecvRespectsArrivalTime(t *testing.T) {
	RunSim(vtime.NewEngine(), 2, CostModel{Latency: 1e-3, Bandwidth: 1e6}, func(c *Comm) {
		if c.Rank() == 1 {
			// Sent at t=0: enqueued once the sender's latency advance
			// completes (t=1ms), arriving at t=2ms (latency + 1ms wire).
			c.Send(0, 9, make([]byte, 1000))
			return
		}
		// t=1.5ms: the message is queued but still in flight — the
		// arrival guard must hold it back.
		c.Advance(1.5e-3)
		if _, ok := c.TryRecv(1, 9); ok {
			t.Error("TryRecv delivered a message before its virtual arrival time")
		}
		c.Advance(5e-3) // well past arrival
		if _, ok := c.TryRecv(1, 9); !ok {
			t.Error("message should have arrived by now")
		}
	})
}
