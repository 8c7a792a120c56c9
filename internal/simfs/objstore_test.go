package simfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fsio"
	"repro/internal/resil"
)

// testObjProfile keeps part/GET sizes tiny so tests exercise the grid.
func testObjProfile() ObjProfile {
	return ObjProfile{
		PartBytes:         1024,
		MaxGetBytes:       4096,
		PreferredGetBytes: 1024,
		WriteFanout:       4,
	}
}

func TestObjStoreWriteLedger(t *testing.T) {
	obj := NewObjStore(testObjProfile())
	fs := obj.Wrap(fsio.NewOS(t.TempDir()), nil)

	fh, err := fs.Create("o")
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.Stats(); got.Puts != 1 {
		t.Fatalf("create: %+v, want 1 initiation PUT", got)
	}

	// Sequential small appends across 4 parts: parts flush eagerly as
	// they complete, 1 PUT per part, no staged copies.
	base := obj.Stats()
	buf := make([]byte, 256)
	for off := int64(0); off < 4096; off += 256 {
		if _, err := fh.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := fh.Sync(); err != nil {
		t.Fatal(err)
	}
	got := obj.Stats()
	if got.Puts-base.Puts != 4 || got.Copies != 0 {
		t.Fatalf("sequential append: %+v (base %+v), want 4 part PUTs, 0 copies", got, base)
	}

	// Rewriting inside a sealed part is a staged copy: GET + PUT.
	base = got
	if _, err := fh.WriteAt(buf, 512); err != nil {
		t.Fatal(err)
	}
	if err := fh.Sync(); err != nil {
		t.Fatal(err)
	}
	got = obj.Stats()
	if got.Copies-base.Copies != 1 || got.Gets-base.Gets != 1 || got.Puts-base.Puts != 1 {
		t.Fatalf("sealed-region rewrite: %+v (base %+v), want 1 staged copy", got, base)
	}

	// A non-contiguous jump flushes the open window at the seam.
	base = got
	if _, err := fh.WriteAt(buf[:100], 8000); err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt(buf[:100], 9000); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	got = obj.Stats()
	// Both writes land in unsealed parts 7 and 8: seam flush + close
	// flush = 2 PUTs, no copies.
	if got.Puts-base.Puts != 2 || got.Copies != base.Copies {
		t.Fatalf("seam flush: %+v (base %+v), want 2 PUTs", got, base)
	}

	// An empty write sends nothing. Truncate is one staged copy and
	// forgets the parts past the cut: rewriting part 2 is a plain PUT.
	fh, err = fs.OpenRW("o")
	if err != nil {
		t.Fatal(err)
	}
	base = obj.Stats()
	if _, err := fh.WriteAt(nil, 100); err != nil {
		t.Fatal(err)
	}
	if err := fh.Truncate(2048); err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt(buf, 2048); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	got = obj.Stats()
	if got.Copies-base.Copies != 1 || got.Puts-base.Puts != 2 {
		t.Fatalf("truncate and rewrite: %+v (base %+v), want 1 copy and 1 PUT", got, base)
	}
	if err := fh.Truncate(0); err == nil {
		t.Fatal("Truncate through a closed handle succeeded")
	}
	if err := fs.Remove("missing"); !errors.Is(err, fsio.ErrNotExist) {
		t.Fatalf("Remove of a missing object: %v", err)
	}
}

// TestObjStoreRequestTime: with a per-request round trip, each request
// the wrap bills sleeps it — a Truncate's staged copy two of them.
func TestObjStoreRequestTime(t *testing.T) {
	prof := testObjProfile()
	prof.RequestSecs = 0.5
	obj := NewObjStore(prof)
	var slept float64
	fs := obj.Wrap(fsio.NewOS(t.TempDir()), func(s float64) { slept += s })
	fh, err := fs.Create("o")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if slept != 0.5 {
		t.Fatalf("create slept %g s, want one round trip", slept)
	}
	if err := fh.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	if slept != 1.5 {
		t.Fatalf("create and truncate slept %g s, want three round trips", slept)
	}
}

func TestObjStoreReadLedger(t *testing.T) {
	obj := NewObjStore(testObjProfile())
	fs := obj.Wrap(fsio.NewOS(t.TempDir()), nil)
	fh, err := fs.Create("o")
	if err != nil {
		t.Fatal(err)
	}
	if err := fh.WriteZeroAt(10240, 0); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	rh, err := fs.Open("o")
	if err != nil {
		t.Fatal(err)
	}
	defer rh.Close()
	base := obj.Stats()
	if base.Heads == 0 {
		t.Fatalf("open issued no HEAD: %+v", base)
	}
	// One 10 KiB read splits into ceil(10240/4096) = 3 ranged GETs.
	if _, err := rh.ReadDiscardAt(10240, 0); err != nil {
		t.Fatal(err)
	}
	if got := obj.Stats(); got.Gets-base.Gets != 3 {
		t.Fatalf("ranged read: %+v (base %+v), want 3 GETs", got, base)
	}
	// A read past the end, or of no bytes, still costs one GET.
	base = obj.Stats()
	if _, err := rh.ReadAt(make([]byte, 8), 20000); err == nil {
		t.Fatal("read past the end returned no error")
	}
	if _, err := rh.ReadAt(nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := obj.Stats(); got.Gets-base.Gets != 2 {
		t.Fatalf("reads past the end and of no bytes: %+v (base %+v), want 2 GETs", got, base)
	}
}

// TestObjStoreByteIdentity pins the data-plane contract: bytes written
// through the object-store wrap are exactly the bytes of the inner
// backend.
func TestObjStoreByteIdentity(t *testing.T) {
	dir := t.TempDir()
	inner := fsio.NewOS(dir)
	obj := NewObjStore(testObjProfile())
	fs := obj.Wrap(inner, nil)

	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	fh, err := fs.Create("o")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(payload); off += 300 {
		end := off + 300
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := fh.WriteAt(payload[off:end], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := inner.Open("o")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	got := make([]byte, len(payload))
	if _, err := raw.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("inner backend bytes differ from written payload")
	}
}

// TestStackedDecoratorCaps pins the decorator interface-forwarding fix:
// the backend's capability descriptor must survive every decorator
// stack order (Instrument, resil.Wrap, Flaky, in any nesting), because
// each pass-through decorator exposes Unwrap and fsio.CapabilitiesOf
// walks the chain.
func TestStackedDecoratorCaps(t *testing.T) {
	dir := t.TempDir()
	obj := NewObjStore(testObjProfile())
	backend := obj.Wrap(fsio.NewOS(dir), nil)
	want := fsio.CapabilitiesOf(backend)
	if want.PartSizeFloor != 1024 {
		t.Fatalf("backend descriptor unexpected: %+v", want)
	}

	fl := NewFlaky(FlakyConfig{Seed: 1})
	fl.SetEnabled(false)
	stacks := map[string]fsio.FileSystem{
		"instrument(resil(flaky(obj)))": fsio.Instrument(
			resil.Wrap(fl.Wrap(backend, nil), resil.Budget{}, nil), fsio.NewMeter(nil, "objstore")),
		"resil(instrument(obj))": resil.Wrap(
			fsio.Instrument(backend, fsio.NewMeter(nil, "objstore")), resil.Budget{}, nil),
		"flaky(resil(obj))": fl.Wrap(resil.Wrap(backend, resil.Budget{}, nil), nil),
	}
	for name, fs := range stacks {
		if got := fsio.CapabilitiesOf(fs); got != want {
			t.Errorf("%s: capabilities %+v, want %+v", name, got, want)
		}
	}

	// The object store is a backend boundary, not a pass-through: the
	// POSIX descriptor of the inner OS backend must NOT leak through it.
	if _, ok := backend.(fsio.Unwrapper); ok {
		t.Error("object-store wrap exposes Unwrap; it must answer optional interfaces itself")
	}
}
