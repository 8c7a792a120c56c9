package mpi

import (
	"testing"

	"repro/internal/vtime"
)

func BenchmarkBarrier64Real(b *testing.B) {
	Run(64, func(c *Comm) {
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
	})
}

func BenchmarkAllreduce64Real(b *testing.B) {
	Run(64, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.AllreduceInt64(OpSum, int64(c.Rank()))
		}
	})
}

func BenchmarkGatherv64Real(b *testing.B) {
	payload := make([]byte, 64)
	Run(64, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.Gatherv(0, payload)
		}
	})
}

// Allocation pressure of the typed slice collectives on the ParOpen
// critical path: the root decodes gathers into one flat array (slice
// views per rank) and flat-encodes scatters, so allocations stay O(1) in
// the rank count instead of O(ranks) per collective.
func BenchmarkGatherScatterInt64Slice64(b *testing.B) {
	b.ReportAllocs()
	Run(64, func(c *Comm) {
		vals := []int64{int64(c.Rank()), 42, 7}
		for i := 0; i < b.N; i++ {
			all := c.GatherInt64Slice(0, vals)
			c.ScatterInt64Slice(0, all)
		}
	})
}

// Simulated-mode cost: how fast the engine retires collectives at scale.
func BenchmarkSimWorld4096ParOpenShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := vtime.NewEngine()
		RunSim(e, 4096, DefaultCost, func(c *Comm) {
			c.GatherInt64Slice(0, []int64{int64(c.Rank())})
			sub := c.Split(c.Rank()%16, c.Rank())
			sub.GatherInt64Slice(0, []int64{1})
			sub.Barrier()
		})
	}
}
