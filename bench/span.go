package main

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer (or, through
// timedFS, one fsio op the layers made). Who is the rank or client whose
// goroutine recorded it, -1 for background (fetcher/flusher) goroutines.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // 0 = none
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Iter     int32  `json:"iter"`
	Who      int32  `json:"who"`
}

// tracer owns every span of one traced run. Spans are kept in memory, in
// per-goroutine recorders, and collected when the measurement is over.
type tracer struct {
	workload string
	epoch    time.Time
	nextID   atomic.Int32

	mu   sync.Mutex
	recs []*recorder
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// recorder returns a span buffer owned by the calling goroutine; its
// top-level spans hang off parent.
func (t *tracer) recorder(iter int, who int, parent int32, capacity int) *recorder {
	r := &recorder{t: t, goid: goid(), iter: int32(iter), who: int32(who), parent: parent,
		spans: make([]span, 0, capacity)}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// background returns a recorder any goroutine may add finished spans to;
// they all hang off parent (the iteration root).
func (t *tracer) background(iter int, parent int32, capacity int) *recorder {
	r := t.recorder(iter, -1, parent, capacity)
	r.goid = -1
	r.shared = true
	return r
}

func (t *tracer) collect() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recs {
		out = append(out, r.spans...)
	}
	return out
}

// recorder is one goroutine's span buffer: begin/end nest on its stack, so
// a span's parent is the enclosing span opened on the same goroutine.
type recorder struct {
	t      *tracer
	goid   int64
	iter   int32
	who    int32
	parent int32 // parent of top-level spans
	spans  []span
	stack  []int // indices of open spans

	shared bool // background recorder: add() takes mu
	mu     sync.Mutex
}

func (r *recorder) top() int32 {
	if n := len(r.stack); n > 0 {
		return r.spans[r.stack[n-1]].ID
	}
	return r.parent
}

func (r *recorder) begin(layer, name string) {
	parent := r.top()
	r.stack = append(r.stack, len(r.spans))
	r.spans = append(r.spans, span{ID: r.t.nextID.Add(1), Parent: parent, Layer: layer, Name: name,
		Start: r.t.now(), Workload: r.t.workload, Iter: r.iter, Who: r.who})
}

func (r *recorder) end() {
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].End = r.t.now()
}

// add records an already finished leaf span under the current top.
func (r *recorder) add(layer, name string, start, end int64) {
	if r.shared {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.spans = append(r.spans, span{ID: r.t.nextID.Add(1), Parent: r.top(), Layer: layer, Name: name,
		Start: start, End: end, Workload: r.t.workload, Iter: r.iter, Who: r.who})
}

// goid returns the calling goroutine's id. The runtime offers no cheaper
// way; at about a microsecond it is paid only in traced runs, once per
// recorder and once per fsio op, to decide whether the op runs on the
// goroutine that owns the enclosing span or on a fetcher/flusher.
func goid() int64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// selfTimes returns each span's duration minus the union of its
// children's intervals (clipped to the span).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// intervalUnion is a sorted, merged set of [start, end) intervals with
// prefix sums, answering "how much of [a, b) is covered".
type intervalUnion struct {
	start, end []int64
	cum        []int64 // cum[i] = total length of intervals before i
}

func newIntervalUnion(spans []span) *intervalUnion {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(a, b int) bool { return s[a].Start < s[b].Start })
	u := &intervalUnion{}
	for _, x := range s {
		if n := len(u.end); n > 0 && x.Start <= u.end[n-1] {
			u.end[n-1] = max(u.end[n-1], x.End)
			continue
		}
		u.start = append(u.start, x.Start)
		u.end = append(u.end, x.End)
	}
	u.cum = make([]int64, len(u.start)+1)
	for i := range u.start {
		u.cum[i+1] = u.cum[i] + u.end[i] - u.start[i]
	}
	return u
}

func (u *intervalUnion) covered(a, b int64) int64 {
	// Intervals [i, j) are the ones that can intersect [a, b).
	i := sort.Search(len(u.end), func(k int) bool { return u.end[k] > a })
	j := sort.Search(len(u.start), func(k int) bool { return u.start[k] >= b })
	if i >= j {
		return 0
	}
	total := u.cum[j] - u.cum[i]
	total -= max(a-u.start[i], 0)
	total -= max(u.end[j-1]-b, 0)
	return total
}
