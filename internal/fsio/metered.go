package fsio

import (
	"errors"
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// Meter holds the fsio instrument families for one backend, registered
// in an obs.Registry under a backend label. Operations are bucketed
// into four classes — read, write, meta (create/open/stat/remove/size/
// truncate), sync — which is the granularity the paper's analysis works
// at (§4 separates data transfer from metadata and sync cost) and keeps
// the family cardinality flat no matter how many call sites exist.
//
// Latency is sampled 1-in-latSample per op class rather than measured on
// every call: two clock reads per op would dominate the cost of a cached
// simfs read, and a sampled histogram answers the same p50/p95/p99
// questions.
type Meter struct {
	backend string

	ops    [opClasses]*obs.Counter
	errs   [opClasses]*obs.Counter
	bytes  [2]*obs.Counter // read, write only
	lat    [opClasses]*obs.Histogram
	ticks  [opClasses]atomic.Int64
	now    func() int64
	off    bool
	sample int64
}

// Op classes.
const (
	opRead = iota
	opWrite
	opMeta
	opSync
	opClasses
)

var opNames = [opClasses]string{"read", "write", "meta", "sync"}

// latSample is the default sampling interval for latency observations.
const latSample = 64

// NewMeter registers the fsio metric families for one backend (the
// backend label distinguishes e.g. "os" from "sim") and returns the
// meter. A nil registry yields an inert meter; metering against
// obs.Nop() is likewise free of atomic traffic beyond the op counters.
func NewMeter(reg *obs.Registry, backend string) *Meter {
	m := &Meter{backend: backend, sample: latSample}
	if reg == nil {
		reg = obs.Nop()
	}
	m.off = reg.Disabled()
	m.now = reg.Now
	for c := 0; c < opClasses; c++ {
		lbl := obs.L("backend", backend, "op", opNames[c])
		m.ops[c] = reg.Counter("fsio_ops_total",
			"fsio operations by backend and op class", lbl...)
		m.errs[c] = reg.Counter("fsio_errors_total",
			"failed fsio operations (io.EOF from short reads excluded)", lbl...)
		m.lat[c] = reg.Histogram("fsio_op_seconds",
			"sampled fsio operation latency", lbl...)
	}
	m.bytes[opRead] = reg.Counter("fsio_bytes_total",
		"bytes moved through fsio", obs.L("backend", backend, "op", "read")...)
	m.bytes[opWrite] = reg.Counter("fsio_bytes_total",
		"bytes moved through fsio", obs.L("backend", backend, "op", "write")...)
	return m
}

// Instrument wraps inner so every operation is counted in m, as a hook
// of Intercept. It layers anywhere in a decorator stack: outside
// resil.Wrap it sees the logical-operation rate; inside, the per-attempt
// rate (retries included). The serving stack wraps the innermost backend
// so fsio_ops_total{op="read"} counts physical attempts.
func Instrument(inner FileSystem, m *Meter) FileSystem {
	if m == nil {
		m = NewMeter(nil, "nop")
	}
	return Intercept(inner, m.observe)
}

// observe is Instrument's hook: one op of its class (Truncate, Size and
// Close are meta), the bytes of a read or write, an error unless io.EOF,
// and the latency of every sample-th op of the class — the first always,
// so short-lived tools still get a latency point. BlockSize is not an
// operation the meter counts.
func (m *Meter) observe(op Op) (int64, error) {
	class := opMeta
	switch op.Call {
	case "BlockSize":
		return op.Do()
	case "ReadAt", "ReadvAt", "ReadDiscardAt":
		class = opRead
	case "WriteAt", "WriteZeroAt":
		class = opWrite
	case "Sync":
		class = opSync
	}
	m.ops[class].Inc()
	var start int64
	if !m.off && m.ticks[class].Add(1)%m.sample == 1 {
		start = m.now()
	}
	n, err := op.Do()
	if class == opRead || class == opWrite {
		m.bytes[class].Add(n)
	}
	if err != nil && !errors.Is(err, io.EOF) {
		m.errs[class].Inc()
	}
	if start != 0 {
		m.lat[class].Observe(m.now() - start)
	}
	return n, err
}
