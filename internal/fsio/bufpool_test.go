package fsio

import "testing"

func TestBufPool(t *testing.T) {
	var bp BufPool
	if b := bp.Get(100); len(b) != 100 {
		t.Fatalf("Get(100) has length %d", len(b))
	}
	bp.Put(nil) // nothing to keep, nothing to break
	if b := bp.Get(0); len(b) != 0 {
		t.Fatalf("Get(0) has length %d", len(b))
	}

	// A pooled buffer that is too small is replaced by one that fits.
	bp.Put(make([]byte, 16))
	if b := bp.Get(4096); len(b) != 4096 {
		t.Fatalf("Get(4096) after Put of 16 bytes has length %d", len(b))
	}

	// Warm, a Get/Put pair allocates neither a buffer nor a slice header.
	// (AllocsPerRun truncates its average, so the Puts sync.Pool drops
	// under the race detector do not show.)
	bp.Put(bp.Get(64 << 10))
	if allocs := testing.AllocsPerRun(100, func() { bp.Put(bp.Get(64 << 10)) }); allocs != 0 {
		t.Errorf("a warm Get/Put pair allocates %v times", allocs)
	}
}
