package fsio_test

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/simfs"
)

// counterValue reads one family child's value out of the exposition text.
func counterValue(t *testing.T, reg *obs.Registry, sample string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseInt(line[len(sample)+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not found in exposition:\n%s", sample, buf.String())
	return 0
}

func TestInstrumentCountsOps(t *testing.T) {
	reg := obs.NewRegistry()
	fs := fsio.Instrument(fsio.NewOS(t.TempDir()), fsio.NewMeter(reg, "os"))

	f, err := fs.Create(filepath.Join("a.dat"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello metered world")
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("read back %q", buf)
	}
	// short read at EOF: counted as an op, bytes counted, NOT an error
	short := make([]byte, 64)
	if _, err := f.ReadAt(short, 0); err != io.EOF && err != nil {
		t.Fatalf("short read err = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// a failing open IS an error
	if _, err := fs.Open("missing.dat"); !errors.Is(err, fsio.ErrNotExist) {
		t.Fatalf("open missing = %v", err)
	}

	if got := counterValue(t, reg, `fsio_ops_total{backend="os",op="read"}`); got != 2 {
		t.Errorf("read ops = %d, want 2", got)
	}
	if got := counterValue(t, reg, `fsio_ops_total{backend="os",op="write"}`); got != 1 {
		t.Errorf("write ops = %d, want 1", got)
	}
	if got := counterValue(t, reg, `fsio_ops_total{backend="os",op="sync"}`); got != 1 {
		t.Errorf("sync ops = %d, want 1", got)
	}
	wantBytes := int64(2 * len(payload)) // full read + short read both return len(payload)
	if got := counterValue(t, reg, `fsio_bytes_total{backend="os",op="read"}`); got != wantBytes {
		t.Errorf("read bytes = %d, want %d", got, wantBytes)
	}
	if got := counterValue(t, reg, `fsio_bytes_total{backend="os",op="write"}`); got != int64(len(payload)) {
		t.Errorf("write bytes = %d, want %d", got, len(payload))
	}
	if got := counterValue(t, reg, `fsio_errors_total{backend="os",op="read"}`); got != 0 {
		t.Errorf("read errors = %d, want 0 (EOF is not an error)", got)
	}
	if got := counterValue(t, reg, `fsio_errors_total{backend="os",op="meta"}`); got != 1 {
		t.Errorf("meta errors = %d, want 1 (failed open)", got)
	}

	var out bytes.Buffer
	if err := reg.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(out.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

func TestInstrumentNilMeter(t *testing.T) {
	fs := fsio.Instrument(fsio.NewOS(t.TempDir()), nil)
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentCountsZeroWrites: a WriteZeroAt's bytes count when it
// succeeds and not when it fails, and a ReadDiscardAt counts the bytes it
// found.
func TestInstrumentCountsZeroWrites(t *testing.T) {
	reg := obs.NewRegistry()
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	fs := fsio.Instrument(fl.Wrap(fsio.NewOS(t.TempDir()), nil), fsio.NewMeter(reg, "os"))
	f, err := fs.Create("z")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteZeroAt(100, 0); err != nil {
		t.Fatal(err)
	}
	fl.SetRule(func(fsio.Op) error { return fsio.ErrQuota })
	if err := f.WriteZeroAt(50, 100); !errors.Is(err, fsio.ErrQuota) {
		t.Fatalf("WriteZeroAt under a failing rule: %v", err)
	}
	fl.SetRule(nil)
	if n, err := f.ReadDiscardAt(500, 0); n != 100 || err != io.EOF && err != nil {
		t.Fatalf("ReadDiscardAt = %d, %v", n, err)
	}
	for sample, want := range map[string]int64{
		`fsio_ops_total{backend="os",op="write"}`:    2,
		`fsio_errors_total{backend="os",op="write"}`: 1,
		`fsio_bytes_total{backend="os",op="write"}`:  100,
		`fsio_bytes_total{backend="os",op="read"}`:   100,
	} {
		if got := counterValue(t, reg, sample); got != want {
			t.Errorf("%s = %d, want %d", sample, got, want)
		}
	}
}
