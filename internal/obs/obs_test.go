package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// same name+labels returns the same instrument
	if r.Counter("x_total", "help") != c {
		t.Fatal("second Counter call returned a different instrument")
	}
	// a gauge is read from its func at exposition time; registering the
	// same name and labels again replaces the func
	r.GaugeFunc("g", "help", func() float64 { return 7 })
	r.GaugeFunc("g", "help", func() float64 { return 4 })
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\ng 4\n") {
		t.Fatalf("gauge exposition %q, want g 4", buf.String())
	}

	var nilC *Counter
	nilC.Add(1) // must not panic
}

func TestNopRegistryInert(t *testing.T) {
	r := Nop()
	c := r.Counter("x_total", "help")
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("Nop counter accumulated")
	}
	h := r.Histogram("h_seconds", "help")
	h.Observe(123)
	if h.Snapshot().Count != 0 {
		t.Fatal("Nop histogram accumulated")
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Nop exposition nonempty: %q", buf.String())
	}
}

func TestLabelConsistencyPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h", Label{"k", "v"})
	mustPanic(t, "label key mismatch", func() {
		r.Counter("a_total", "h", Label{"other", "v"})
	})
	mustPanic(t, "label count mismatch", func() {
		r.Counter("a_total", "h")
	})
	mustPanic(t, "type mismatch", func() {
		r.GaugeFunc("a_total", "h", func() float64 { return 0 }, Label{"k", "v"})
	})
	mustPanic(t, "bad name", func() { r.Counter("9bad", "h") })
	mustPanic(t, "odd L", func() { L("a", "b", "c") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &Histogram{}
	// bucket 0 covers (..2^10]; exact bound must land in its own bucket
	if b := bucketFor(1 << 10); b != 0 {
		t.Fatalf("bucketFor(2^10) = %d, want 0", b)
	}
	if b := bucketFor(1<<10 + 1); b != 1 {
		t.Fatalf("bucketFor(2^10+1) = %d, want 1", b)
	}
	if b := bucketFor(1 << 40); b != histBuckets {
		t.Fatalf("bucketFor(2^40) = %d, want overflow %d", b, histBuckets)
	}
	if b := bucketFor(0); b != 0 {
		t.Fatalf("bucketFor(0) = %d, want 0", b)
	}

	// 100 observations at ~1ms, 10 at ~100ms: p50 ~1ms bucket, p99 in
	// the tail
	for i := 0; i < 100; i++ {
		h.Observe(int64(time.Millisecond))
	}
	for i := 0; i < 10; i++ {
		h.Observe(int64(100 * time.Millisecond))
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	p50, p99 := s.Quantile(0.50), s.Quantile(0.99)
	if p50 > int64(2*time.Millisecond) {
		t.Fatalf("p50 = %v, want <= ~2ms", time.Duration(p50))
	}
	if p99 < int64(50*time.Millisecond) {
		t.Fatalf("p99 = %v, want >= ~50ms", time.Duration(p99))
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
}

func TestExpositionAndChecker(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests", Label{"node", "n1"}).Add(3)
	r.Counter("reqs_total", "requests", Label{"node", `we"ird\`}).Add(1)
	r.GaugeFunc("depth", "queue depth", func() float64 { return -2 })
	r.GaugeFunc("fn_gauge", "from fn", func() float64 { return 1.5 })
	r.CounterFunc("fn_total", "from fn", func() float64 { return 9 })
	h := r.Histogram("lat_seconds", "latency", Label{"op", "read"})
	h.Observe(int64(3 * time.Microsecond))
	h.Observe(int64(2 * time.Second))

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`reqs_total{node="n1"} 3`,
		`reqs_total{node="we\"ird\\"} 1`,
		"depth -2",
		"fn_gauge 1.5",
		"fn_total 9",
		`lat_seconds_count{op="read"} 2`,
		`le="+Inf"`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("CheckExposition rejected valid output: %v\n%s", err, out)
	}

	// corrupt cases
	if err := CheckExposition([]byte("# TYPE a counter\n# TYPE a counter\na 1\n")); err == nil {
		t.Error("duplicate family not caught")
	}
	if err := CheckExposition([]byte("undeclared 4\n")); err == nil {
		t.Error("undeclared sample not caught")
	}
	bad := strings.Replace(out, `lat_seconds_count{op="read"} 2`, `lat_seconds_count{op="read"} 7`, 1)
	if err := CheckExposition([]byte(bad)); err == nil {
		t.Error("count/+Inf mismatch not caught")
	}
}

// TestUnregister: removing a label prefix drops exactly the instruments
// whose labels begin with it, and the families it empties, so the
// exposition reads as if they were never registered.
func TestUnregister(t *testing.T) {
	expose := func(r *Registry) string {
		var b bytes.Buffer
		if err := r.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	r := NewRegistry()
	r.Counter("shared_total", "h", L("node", "a")...).Add(3)
	r.Counter("other_total", "h").Inc()
	want := expose(r)
	r.Counter("shared_total", "h", L("node", "b")...).Inc()
	r.GaugeFunc("only_b", "h", func() float64 { return 7 }, L("node", "b", "file", "0")...)
	r.Unregister(L("node", "b")...)
	if got := expose(r); got != want {
		t.Fatalf("after Unregister:\n%s\nwant\n%s", got, want)
	}
}

func TestSpan(t *testing.T) {
	sp := NewSpan(NewRequestID())
	if len(sp.ID()) != 16 {
		t.Fatalf("request id %q, want 16 hex chars", sp.ID())
	}
	if next := NewRequestID(); next == sp.ID() || next[:8] != sp.ID()[:8] {
		t.Fatalf("request ids %q then %q, want one prefix and distinct ids", sp.ID(), next)
	}
	sp.Add(CrumbRetry, 4)
	sp.Add(CrumbCacheHit, 3)
	sp.Add(CrumbBackendRead, 1)
	sp.Add(CrumbCacheHit, 2)
	sp.Add(CrumbPeerFill, 0)
	if got := sp.Get(CrumbCacheHit); got != 5 {
		t.Fatalf("cache_hit = %d, want 5", got)
	}
	if s := sp.String(); s != "backend_read=1 cache_hit=5 retry=4" {
		t.Fatalf("String() = %q, want the non-zero crumbs in name order", s)
	}
	if CrumbReadAround.String() != "read_around" {
		t.Fatalf("CrumbReadAround = %q", CrumbReadAround)
	}
	if n := testing.AllocsPerRun(100, func() {
		sp.Add(CrumbFlightHit, 1)
		_ = sp.Get(CrumbFlightHit)
	}); n != 0 {
		t.Fatalf("Add and Get allocate %v times, want 0", n)
	}

	var nilSpan *Span
	nilSpan.Add(CrumbRetry, 1)
	if nilSpan.Get(CrumbRetry) != 0 || nilSpan.ID() != "" || nilSpan.String() != "" {
		t.Fatal("nil span not inert")
	}

	ctx := WithSpan(context.Background(), sp)
	if SpanFrom(ctx) != sp {
		t.Fatal("SpanFrom lost the span")
	}
	if SpanFrom(context.Background()) != nil {
		t.Fatal("SpanFrom on empty context should be nil")
	}
}

func TestSpanConcurrent(t *testing.T) {
	sp := NewSpan("")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				sp.Add(CrumbRetry, 1)
			}
		}()
	}
	wg.Wait()
	if got := sp.Get(CrumbRetry); got != 8000 {
		t.Fatalf("retry = %d, want 8000", got)
	}
}

func TestConcurrentRegistryAndInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c_total", "h")
			h := r.Histogram("h_seconds", "h")
			for j := 0; j < 500; j++ {
				c.Inc()
				h.Observe(int64(j))
			}
		}()
	}
	// concurrent exposition
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := r.WriteProm(&buf); err != nil {
				t.Error(err)
				return
			}
			if err := CheckExposition(buf.Bytes()); err != nil {
				t.Errorf("mid-flight exposition invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("c_total", "h").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("h_seconds", "h").Snapshot().Count; got != 4000 {
		t.Fatalf("hist count = %d, want 4000", got)
	}
}

// TestCheckExpositionRejects: one malformed exposition per error return of
// CheckExposition, each rejected with that return's message.
func TestCheckExpositionRejects(t *testing.T) {
	const h = "# TYPE h histogram\n"
	for _, c := range []struct{ name, text, want string }{
		{"malformed TYPE", "# TYPE a\n", "malformed TYPE line"},
		{"duplicate family", "# TYPE a counter\n# TYPE a gauge\n", "duplicate family"},
		{"sample without value", "# TYPE a counter\na\n", "malformed sample"},
		{"unterminated labels", "# TYPE a counter\na{op=\"r\" 1\n", "unterminated labels"},
		{"bad value", "# TYPE a counter\na one\n", "bad value"},
		{"undeclared", "b 1\n", "no TYPE declaration"},
		{"bare histogram sample", h + "h 1\n", "bare sample"},
		{"bucket without le", h + "h_bucket{op=\"r\"} 1\n", "missing le label"},
		{"bucket without labels", h + "h_bucket{} 1\n", "missing le label"},
		{"+Inf below cumulative", h + "h_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\n", "+Inf bucket 2 below"},
		{"bad le", h + "h_bucket{le=\"x\"} 1\n", "bad le"},
		{"le not increasing", h + "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\n", "not greater than previous"},
		{"cumulative decreasing", h + "h_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\n", "cumulative count decreased"},
		{"line too long", "# HELP a " + strings.Repeat("x", 1<<20) + "\n", "too long"},
		{"no +Inf bucket", h + "h_bucket{le=\"1\"} 1\nh_count 1\n", "no +Inf bucket"},
		{"no _count", h + "h_bucket{le=\"+Inf\"} 1\n", "no _count"},
		{"_count off +Inf", h + "h_bucket{le=\"+Inf\"} 1\nh_count 2\n", "_count 2 != +Inf bucket 1"},
	} {
		err := CheckExposition([]byte(c.text))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckExposition = %v, want an error naming %q", c.name, err, c.want)
		}
	}
	// Accepted: blank lines, plain comments, and label values with every
	// escaped character, as WriteProm writes them.
	reg := NewRegistry()
	reg.Histogram("h", "help", L("v", "a\"b,\\c\nd")...).Observe(1)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(append([]byte("# a comment\n\n"), buf.Bytes()...)); err != nil {
		t.Errorf("CheckExposition rejected escaped label values: %v\n%s", err, buf.String())
	}
}
