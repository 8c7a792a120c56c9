package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// spec declares one workload in application terms (MACSio's vocabulary:
// a job of Tasks ranks dumps BytesPerTask each as a stream of records,
// restarts from the dump, and the dump is then served to readers). Every
// workload runs the whole pipeline, so every metric exists on every
// workload; the specs differ in which layer the pipeline leans on. All
// four are sized per task (weak scaling): the dump grows with Tasks.
type spec struct {
	Name string
	Why  string

	// Checkpoint side.
	Tasks          int   // writer ranks (mpi.Run size)
	BytesPerTask   int64 // logical bytes each rank writes per dump
	RecMin, RecMax int   // record sizes, log-uniform in [RecMin, RecMax]; equal = fixed
	ChunkSize      int64 // Options.ChunkSize
	Readers        int   // M of the N→M mapped reopen (P4)

	// Serving side: the read mix replayed against the dump.
	RankSkew       float64 // zipf exponent over ranks; 0 = uniform
	ReqMin, ReqMax int     // request sizes, log-uniform
	CacheBytes     int64   // block-cache budget (state it against DumpBytes)
}

func (s *spec) DumpBytes() int64 { return int64(s.Tasks) * s.BytesPerTask }

// workloads is the benchmark's fixed set. Sizes are chosen against this
// box's caches (L2 4 MiB per core): a ckpt-large dump is 32× L2, and the
// serve-* data set is 16× L2; the block cache is 4× (hot) or 1/8 (cold)
// of the served data. No cache is near half its data under uniform reads:
// with every other request a hit, the median latency sits on the edge
// between the hit mode and the miss mode and flips from run to run.
var workloads = []spec{
	{
		Name:  "ckpt-large",
		Why:   "large records bypass staging and framing, so fsio does nearly all the work and core/mpi should be invisible; served back in big slabs through a quarter-size cache",
		Tasks: 8, BytesPerTask: 16 << 20, RecMin: 4 << 20, RecMax: 4 << 20, ChunkSize: 8 << 20, Readers: 2,
		RankSkew: 0, ReqMin: 256 << 10, ReqMax: 1 << 20, CacheBytes: 32 << 20,
	},
	{
		Name:  "ckpt-small",
		Why:   "64 ranks of 64 B-4 KiB records: per-record cost, write-behind coalescing, collective frames and the ParOpen metadata exchange dominate; served back in record-sized requests, all resident",
		Tasks: 64, BytesPerTask: 512 << 10, RecMin: 64, RecMax: 4 << 10, ChunkSize: 64 << 10, Readers: 4,
		RankSkew: 1.1, ReqMin: 64, ReqMax: 4 << 10, CacheBytes: 64 << 20,
	},
	{
		Name:  "serve-hot",
		Why:   "zipf reads of a 64 MiB dump through a 256 MiB cache: after warm-up the backend does nothing and cache lookup, copy-out, ring routing and HTTP framing do all the work",
		Tasks: 64, BytesPerTask: 1 << 20, RecMin: 64 << 10, RecMax: 64 << 10, ChunkSize: 256 << 10, Readers: 4,
		RankSkew: 1.1, ReqMin: 4 << 10, ReqMax: 64 << 10, CacheBytes: 256 << 20,
	},
	{
		Name:  "serve-cold",
		Why:   "the same 64 MiB and request sizes, uniform ranks, cache 1/8 of the data: misses, fetcher batching, span coalescing and fsio preads dominate; dumped in 1-64 KiB records, restarted on 16 readers",
		Tasks: 64, BytesPerTask: 1 << 20, RecMin: 1 << 10, RecMax: 64 << 10, ChunkSize: 256 << 10, Readers: 16,
		RankSkew: 0, ReqMin: 4 << 10, ReqMax: 64 << 10, CacheBytes: 8 << 20,
	},
}

func workloadByName(name string) *spec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// rng is splitmix64: tiny, fast, and pinned here so the generated inputs
// depend on -seed alone (math/rand's streams are not pinned across Go
// versions).
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// logUniform draws from [lo, hi] with equal mass per octave.
func (r *rng) logUniform(lo, hi int) int {
	if lo >= hi {
		return lo
	}
	v := int(math.Exp(math.Log(float64(lo)) + r.float()*(math.Log(float64(hi)+1)-math.Log(float64(lo)))))
	return min(max(v, lo), hi)
}

// Stream ids keep the generators independent of each other.
const (
	streamPayload = 1 << 32
	streamRecords = 2 << 32
	streamClients = 3 << 32
	streamRanks   = 4 << 32
)

// genPayload returns rank g's logical stream.
func genPayload(sp *spec, seed int64, g int) []byte {
	out := make([]byte, sp.BytesPerTask)
	r := newRNG(seed, streamPayload+uint64(g))
	i := 0
	for ; i+8 <= len(out); i += 8 {
		binary.LittleEndian.PutUint64(out[i:], r.next())
	}
	for v := r.next(); i < len(out); i++ {
		out[i] = byte(v)
		v >>= 8
	}
	return out
}

// genRecords returns the end offset of every record of rank g's stream:
// the rank issues one Write (and later one Read) per record.
func genRecords(sp *spec, seed int64, g int) []int64 {
	r := newRNG(seed, streamRecords+uint64(g))
	var ends []int64
	for pos := int64(0); pos < sp.BytesPerTask; {
		pos = min(pos+int64(r.logUniform(sp.RecMin, sp.RecMax)), sp.BytesPerTask)
		ends = append(ends, pos)
	}
	return ends
}

// request is one read of the serving mix.
type request struct {
	Rank int
	Off  int64
	N    int
}

// requestGen is client c's endless request stream.
type requestGen struct {
	sp   *spec
	r    *rng
	cum  []float64 // zipf CDF over popularity positions (nil = uniform)
	perm []int     // popularity position → rank
}

func newRequestGen(sp *spec, seed int64, client int) *requestGen {
	g := &requestGen{sp: sp, r: newRNG(seed, streamClients+uint64(client))}
	if sp.RankSkew > 0 {
		g.cum = make([]float64, sp.Tasks)
		sum := 0.0
		for k := range g.cum {
			sum += 1 / math.Pow(float64(k+1), sp.RankSkew)
			g.cum[k] = sum
		}
		for k := range g.cum {
			g.cum[k] /= sum
		}
		// Which ranks are hot is seeded too, and shared by all clients.
		pr := newRNG(seed, streamRanks)
		g.perm = make([]int, sp.Tasks)
		for i := range g.perm {
			g.perm[i] = i
		}
		for i := len(g.perm) - 1; i > 0; i-- {
			j := pr.intn(int64(i + 1))
			g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		}
	}
	return g
}

func (g *requestGen) next() request {
	var rank int
	if g.cum != nil {
		rank = g.perm[min(sort.SearchFloat64s(g.cum, g.r.float()), len(g.perm)-1)]
	} else {
		rank = int(g.r.intn(int64(g.sp.Tasks)))
	}
	n := min(int64(g.r.logUniform(g.sp.ReqMin, g.sp.ReqMax)), g.sp.BytesPerTask)
	return request{Rank: rank, Off: g.r.intn(g.sp.BytesPerTask - n + 1), N: int(n)}
}
