package workload

import (
	"bytes"
	"fmt"
	"io"
	"reflect"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Stack is a read path a stream is replayed through: Open gives a client
// a handle on a rank, and count, if not nil, says what the stack has done
// so far.
type Stack struct {
	Open  func(client, rank int) (sion.LogicalReaderAt, error)
	count func() Counts
}

// Counts is what a stack did: its servers' stats summed, its node calls
// and its peer-fill probes.
type Counts struct {
	serve.Stats
	Runs   int64 // node calls: a server's are the layout's pieces, a cluster's its routed runs
	Probes int64 // peer-fill Peeks
}

// sub is a minus b for every counter; CachedBytes, a level, stays a's.
func (a Counts) sub(b Counts) Counts {
	va, vb := reflect.ValueOf(&a.Stats).Elem(), reflect.ValueOf(b.Stats)
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).Name != "CachedBytes" {
			va.Field(i).SetInt(va.Field(i).Int() - vb.Field(i).Int())
		}
	}
	a.Runs -= b.Runs
	a.Probes -= b.Probes
	return a
}

func (a Counts) add(b Counts) Counts { return a.sub(Counts{}.sub(b)) }

func (st Stack) counts() Counts {
	if st.count == nil {
		return Counts{}
	}
	return st.count()
}

// pieces counts the node calls a server's handles make.
type pieces struct {
	s *serve.Server
	n int64
}

func (p *pieces) ReadFileAt(file int, b []byte, off int64, sp *obs.Span) error {
	p.n++
	return p.s.ReadFileAt(file, b, off, sp)
}

// Server reads every client through s.
func Server(s *serve.Server) Stack {
	p := &pieces{s: s}
	return Stack{
		Open: func(_, rank int) (sion.LogicalReaderAt, error) {
			return serve.NewHandle(s.Layout(), rank, p)
		},
		count: func() Counts { return Counts{Stats: s.Stats(), Runs: p.n} },
	}
}

// Cluster reads every client through cl's router.
func Cluster(cl *cluster.Cluster) Stack {
	return Stack{
		Open: func(_, rank int) (sion.LogicalReaderAt, error) { return cl.Open(rank) },
		count: func() Counts {
			st := cl.Stats()
			return Counts{Stats: st.Serve, Runs: st.Requests, Probes: st.PeerProbes}
		},
	}
}

// Replay reads stream through st and checks every byte against want(rank),
// the rank's whole stream. Each run of requests by one client on one rank
// is a session: one handle, closed (if it is an io.Closer) when the run
// ends or a request fails, which ends the replay. If at is not nil,
// Replay calls at(i) before request i; at may change the stack, as a
// cluster's membership, and the counts are then summed over the spans
// between such changes, so a node that leaves keeps what it did. Replay
// returns what the stream cost the stack, with CachedBytes the bytes
// resident at the end.
func Replay(st Stack, stream []Request, want func(rank int) []byte, at func(i int)) (Counts, error) {
	var (
		h     sion.LogicalReaderAt
		data  []byte // want(rank) of h's rank
		buf   []byte
		total Counts
	)
	closeSession := func() error {
		c, ok := h.(io.Closer)
		h = nil
		if ok {
			return c.Close()
		}
		return nil
	}
	fail := func(format string, args ...any) (Counts, error) {
		closeSession() // the error being returned is the one to report
		return total, fmt.Errorf(format, args...)
	}
	start := st.counts()
	for i, q := range stream {
		if at != nil {
			before := st.counts()
			at(i)
			if after := st.counts(); after != before {
				total, start = total.add(before.sub(start)), after
			}
		}
		if i == 0 || q.Client != stream[i-1].Client || q.Rank != stream[i-1].Rank {
			if err := closeSession(); err != nil {
				return fail("workload: request %d: closing the last session: %w", i, err)
			}
			var err error
			if h, err = st.Open(q.Client, q.Rank); err != nil {
				return fail("workload: request %d: client %d: open rank %d: %w", i, q.Client, q.Rank, err)
			}
			data = want(q.Rank)
		}
		if q.Off < 0 || q.N < 0 || q.Off+q.N > int64(len(data)) {
			return fail("workload: request %d: rank %d [%d, %d) outside its %d bytes", i, q.Rank, q.Off, q.Off+q.N, len(data))
		}
		if int64(cap(buf)) < q.N {
			buf = make([]byte, q.N)
		}
		p := buf[:q.N]
		if _, err := h.ReadLogicalAt(p, q.Off); err != nil {
			return fail("workload: request %d: client %d rank %d at %d: %w", i, q.Client, q.Rank, q.Off, err)
		}
		if !bytes.Equal(p, data[q.Off:q.Off+q.N]) {
			return fail("workload: request %d: client %d rank %d at %d: bytes differ", i, q.Client, q.Rank, q.Off)
		}
	}
	err := closeSession()
	end := st.counts()
	total = total.add(end.sub(start))
	total.CachedBytes = end.CachedBytes
	return total, err
}
