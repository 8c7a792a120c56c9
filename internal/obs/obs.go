// Package obs is the operational observability core of the serving stack:
// a dependency-free metrics registry (atomic counters, gauges, log-spaced
// latency histograms), a request-scoped trace context with breadcrumbs,
// and the HTTP middleware that logs slow requests. Every hot layer — the
// fsio backends, the read-serving tier (internal/serve), and the cluster
// router (internal/cluster) — registers its instrument families here, and the
// HTTP front end (cmd/sionserve) exposes one registry per process as
// Prometheus text exposition on GET /metrics.
//
// obs measures the serving system itself — cache hit rates, backend read
// latencies, retry budgets — the way CkIO and TASIO instrument their I/O
// stacks to make per-layer behavior credible.
//
// Design constraints:
//
//   - Dependency-free (standard library only), so every layer down to
//     fsio can import it without cycles.
//   - Cheap on the hot path: counters are single atomic adds behind a
//     nil/off check, and latency observations are sampled (the callers
//     decide the rate). Nop() hands out a registry whose instruments do
//     nothing, which the serve overhead-guard benchmark compares against.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value pair attached to an instrument. Families are
// identified by metric name; every instrument of a family must carry the
// same label keys in the same order.
type Label struct {
	Key, Value string
}

// L builds a label list from alternating key, value strings:
// obs.L("node", "n1", "shard", "3"). It panics on an odd argument count
// (a programming error, like a malformed format string).
func L(kv ...string) []Label {
	if len(kv)%2 != 0 {
		panic("obs: L called with an odd key/value count")
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	return out
}

// procStart anchors the registry clock, the process's monotonic clock;
// only differences of clock readings are meaningful.
var procStart = time.Now()

// Registry holds metric families and hands out instruments. All methods
// are safe for concurrent use. Instruments are created on first request
// and shared afterwards: asking twice for the same name and label values
// returns the same counter.
type Registry struct {
	disabled bool

	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Nop returns a disabled registry: instruments created from it are inert
// (Add/Observe do nothing) and exposition writes no families. It is the
// reference point of the serve overhead-guard benchmark.
func Nop() *Registry {
	r := NewRegistry()
	r.disabled = true
	return r
}

// Disabled reports whether the registry was built with Nop.
func (r *Registry) Disabled() bool { return r.disabled }

// Now reads the registry clock: nanoseconds on the process's monotonic
// clock.
func (r *Registry) Now() int64 { return int64(time.Since(procStart)) }

// family is one metric name: its metadata plus all instruments (children)
// by label values.
type family struct {
	name, help string
	typ        string // "counter", "gauge", "histogram"
	keys       []string

	mu       sync.Mutex
	order    []string // insertion order of child keys (exposition sorts)
	children map[string]*child
}

// child is one instrument of a family: exactly one of ctr, hist, or fn
// is set. ctr/hist are assigned under the family lock before
// the child is published and never change; fn is atomic because
// re-registering a Func instrument replaces it while exposition may be
// reading it.
type child struct {
	labels []Label
	ctr    *Counter
	hist   *Histogram
	fn     atomic.Pointer[func() float64]
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// childKey joins label values into a map key (0xff never appears in
// well-formed label values' UTF-8).
func childKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	n := 0
	for _, l := range labels {
		n += len(l.Value) + 1
	}
	b := make([]byte, 0, n)
	for _, l := range labels {
		b = append(b, l.Value...)
		b = append(b, 0xff)
	}
	return string(b)
}

// instrument finds or creates the child for (name, labels), enforcing
// the family invariants: a metric name maps to one type, one help string,
// and one label-key set. Violations panic — they are wiring bugs, caught
// in tests, never data-dependent.
func (r *Registry) instrument(name, help, typ string, isFn bool, labels []Label) *child {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		keys := make([]string, len(labels))
		for i, l := range labels {
			if !validName(l.Key) {
				panic(fmt.Sprintf("obs: %s: invalid label key %q", name, l.Key))
			}
			keys[i] = l.Key
		}
		f = &family{name: name, help: help, typ: typ, keys: keys, children: make(map[string]*child)}
		r.families[name] = f
	}
	r.mu.Unlock()

	if f.typ != typ {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	if len(labels) != len(f.keys) {
		panic(fmt.Sprintf("obs: %s: %d labels, family has %d", name, len(labels), len(f.keys)))
	}
	for i, l := range labels {
		if l.Key != f.keys[i] {
			panic(fmt.Sprintf("obs: %s: label %d is %q, family key is %q", name, i, l.Key, f.keys[i]))
		}
	}

	key := childKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labels: append([]Label(nil), labels...)}
		if !isFn {
			// The concrete instrument is created here, under the family
			// lock, so concurrent first requests for the same (name,
			// labels) cannot race a lazy assignment after publication.
			switch typ {
			case "counter":
				c.ctr = &Counter{off: r.disabled}
			case "histogram":
				c.hist = &Histogram{off: r.disabled}
			}
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Counter returns the counter for (name, labels), creating the family on
// first use. Counters only go up.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.instrument(name, help, "counter", false, labels).ctr
}

// Histogram returns the log-spaced latency histogram for (name, labels),
// creating the family on first use. Name the metric *_seconds: values are
// observed in nanoseconds and exposed in seconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.instrument(name, help, "histogram", false, labels).hist
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time. It is the bridge for pre-existing counters (resil
// retry budgets, breaker open counts) that already live in their own
// atomics: the registry stays the single exposition surface without
// double-counting. Re-registering (same name and labels) replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.instrument(name, help, "counter", true, labels).fn.Store(&fn)
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time (resident cache bytes, breaker states, membership counts).
// Re-registering (same name and labels) replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.instrument(name, help, "gauge", true, labels).fn.Store(&fn)
}

// Unregister removes every instrument whose labels begin with labels: a
// component that never went into service withdraws what it registered. A
// family left empty keeps its name, type and label keys but is not
// exposed.
func (r *Registry) Unregister(labels ...Label) {
	for _, f := range r.snapshotFamilies() {
		f.mu.Lock()
		kept := f.order[:0]
		for _, k := range f.order {
			if c := f.children[k]; len(c.labels) >= len(labels) && slices.Equal(c.labels[:len(labels)], labels) {
				delete(f.children, k)
			} else {
				kept = append(kept, k)
			}
		}
		f.order = kept
		f.mu.Unlock()
	}
}

// snapshotFamilies returns the families sorted by name, for exposition.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Counter is a monotonically increasing value. The zero Counter counts;
// the nil Counter and counters from Nop registries are inert.
type Counter struct {
	off bool
	v   atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 panics: counters only go up). Adding 0 writes
// nothing, so a shared counter's cache line is not contended for it.
func (c *Counter) Add(n int64) {
	if c == nil || c.off || n == 0 {
		return
	}
	if n < 0 {
		panic("obs: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
