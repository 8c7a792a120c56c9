// Package workload replays a request stream through a serving stack. It
// holds the request type, the zipfian client storm that tab6, tab8 and
// tab9 of internal/expt draw from, the stack a stream is read through (a
// per-client open, counted when it is one serve.Server or a cluster) and
// Replay, the one loop that drives a stream through a stack, checks every
// byte it reads and counts what the stack did.
//
// The storm is the read-back the paper's multifile exists for, served to
// many logical clients: CkIO's few aggregated readers behind many clients
// (arXiv:2411.18593), and a cache amortizing one read across clients as in
// Zhang et al.'s collective-buffering models (arXiv:0901.0134).
package workload

import (
	"math"
	"sort"
)

// Request is one logical read: N bytes of Rank's stream at Off, by Client.
// A client's requests are consecutive in a stream.
type Request struct {
	Client, Rank int
	Off, N       int64
}

// Rand is a deterministic LCG, so a stream is identical across runs and
// Go versions (math/rand's streams are not pinned).
type Rand struct{ x uint64 }

// NewRand returns the generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{x: seed} }

// Next returns the next 53-bit draw.
func (r *Rand) Next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x >> 11
}

func (r *Rand) float() float64 {
	return float64(r.Next()%(1<<52)) / float64(uint64(1)<<52)
}

// zipf samples ranks with popularity ∝ 1/(k+1)^1.2 via the cumulative
// distribution.
type zipf struct{ cum []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), 1.2)
		z.cum[k] = total
	}
	for k := range z.cum {
		z.cum[k] /= total
	}
	return z
}

func (z *zipf) sample(r *Rand) int {
	u := r.float()
	return sort.SearchFloat64s(z.cum, u)
}

// ZipfWindows is the number of random windows each storm client reads.
const ZipfWindows = 4

// ZipfClients is the zipfian client storm drawn from seed: client c picks a
// rank of ranks with zipf(1.2) popularity, rank g holding size(g) bytes,
// and reads ZipfWindows windows of window bytes of it at random offsets;
// with every > 0, every every-th client, client 0 first, then reads its
// whole rank in one request.
func ZipfClients(seed uint64, ranks, clients, window, every int, size func(rank int) int) []Request {
	rng, z := NewRand(seed), newZipf(ranks)
	var out []Request
	for c := 0; c < clients; c++ {
		g := z.sample(rng)
		n := size(g)
		for i := 0; i < ZipfWindows; i++ {
			off := int64(rng.Next() % uint64(n-window))
			out = append(out, Request{c, g, off, int64(window)})
		}
		if every > 0 && c%every == 0 {
			out = append(out, Request{c, g, 0, int64(n)})
		}
	}
	return out
}
