package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

const ranks, perRank = 3, 5000

func payload(rank int) []byte {
	p := make([]byte, perRank)
	for i := range p {
		p[i] = byte(rank*31 + i)
	}
	return p
}

// writeMultifile writes a `ranks`-rank multifile in dir with small chunks,
// so every rank spans several blocks. Without close the writer flushes its
// data and stops, as a crashed one would.
func writeMultifile(t *testing.T, dir string, opts sion.Options, close bool) string {
	t.Helper()
	opts.ChunkSize, opts.FSBlockSize = 2048, 1024
	mpi.Run(ranks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsio.NewOS(dir), "m.sion", sion.WriteMode, &opts)
		if err != nil {
			t.Errorf("rank %d: ParOpen: %v", c.Rank(), err)
			return
		}
		if _, err := f.Write(payload(c.Rank())); err != nil {
			t.Errorf("rank %d: Write: %v", c.Rank(), err)
		}
		if close {
			err = f.Close()
		} else {
			err = f.Flush()
		}
		if err != nil {
			t.Errorf("rank %d: close=%v: %v", c.Rank(), close, err)
		}
	})
	return filepath.Join(dir, "m.sion")
}

// sionRun runs the command and checks its exit status.
func sionRun(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	if code := run(args, &o, &e); code != want {
		t.Fatalf("sion %s: exit %d, want %d; stderr:\n%s", strings.Join(args, " "), code, want, e.String())
	}
	return o.String(), e.String()
}

// dump prints the task table Dump prints, -mapping the one DumpMapping
// prints: one row per task, file 0 and local rank = rank here.
func TestDump(t *testing.T) {
	name := writeMultifile(t, t.TempDir(), sion.Options{}, true)
	for _, tc := range []struct {
		flag   string
		dump   func(fsio.FileSystem, string, io.Writer) error
		suffix string
	}{
		{"", sion.Dump, fmt.Sprintf(" %14d", perRank)},
		{"-mapping", sion.DumpMapping, "  " + name},
	} {
		args := []string{"dump", name}
		if tc.flag != "" {
			args = []string{"dump", tc.flag, name}
		}
		got, _ := sionRun(t, 0, args...)
		var want bytes.Buffer
		if err := tc.dump(fsio.NewOS(""), name, &want); err != nil {
			t.Fatal(err)
		}
		if got != want.String() {
			t.Errorf("sion dump %s printed\n%s\nwant\n%s", tc.flag, got, want.String())
		}
		rows := 0
		for _, line := range strings.Split(got, "\n") {
			if strings.HasPrefix(line, fmt.Sprintf("%6d %6d %6d ", rows, 0, rows)) && strings.HasSuffix(line, tc.suffix) {
				rows++
			}
		}
		if rows != ranks {
			t.Errorf("sion dump %s: %d task rows ending %q, want %d:\n%s", tc.flag, rows, tc.suffix, ranks, got)
		}
	}
}

func TestSplitRanks(t *testing.T) {
	dir := t.TempDir()
	name := writeMultifile(t, dir, sion.Options{}, true)
	sionRun(t, 0, "split", "-pattern", filepath.Join(dir, "t-%d.bin"), "-ranks", "0, 2", name)
	sf, err := sion.Open(fsio.NewOS(""), name)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	for _, r := range []int{0, 2} {
		want, err := sf.ReadRank(r)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("t-%d.bin", r))); err != nil || !bytes.Equal(got, want) {
			t.Errorf("rank %d: split wrote %d bytes (err %v), ReadRank has %d", r, len(got), err, len(want))
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "t-1.bin")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("rank 1 was not asked for but split wrote it (stat err %v)", err)
	}
}

func TestDefragThenVerify(t *testing.T) {
	dir := t.TempDir()
	src := writeMultifile(t, dir, sion.Options{}, true)
	dst := filepath.Join(dir, "tight.sion")
	sionRun(t, 0, "defrag", src, dst)
	if out, _ := sionRun(t, 0, "verify", dst); out != "sion verify: multifile verifies clean\n" {
		t.Errorf("verify printed %q", out)
	}
	sf, err := sion.Open(fsio.NewOS(""), dst)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	for r := 0; r < ranks; r++ {
		if got, err := sf.ReadRank(r); err != nil || !bytes.Equal(got, payload(r)) {
			t.Errorf("rank %d after defrag: %d bytes, err %v", r, len(got), err)
		}
	}
	if _, stderr := sionRun(t, 1, "defrag", src, src); !strings.Contains(stderr, "destination is the source") {
		t.Errorf("defrag onto its source: stderr %q", stderr)
	}
}

func TestRepair(t *testing.T) {
	name := writeMultifile(t, t.TempDir(), sion.Options{ChunkHeaders: true}, false)
	sionRun(t, 1, "verify", name) // no closing metadata yet
	out, _ := sionRun(t, 0, "repair", name)
	if !strings.HasPrefix(out, "sion repair: recovered metadata for ") || !strings.HasSuffix(out, "sion repair: multifile verifies clean\n") {
		t.Errorf("repair printed %q", out)
	}
	sionRun(t, 0, "verify", name)

	plain := writeMultifile(t, t.TempDir(), sion.Options{}, false)
	if _, stderr := sionRun(t, 1, "repair", plain); !strings.Contains(stderr, "without chunk headers or watermarks") {
		t.Errorf("repair without headers or watermarks: stderr %q", stderr)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frob", "m.sion"},
		{"verify"},
		{"dump", "a.sion", "b.sion"},
		{"defrag", "a.sion"},
		{"split", "-ranks", "1,x", "m.sion"},
		{"verify", "-backend", "tape", "m.sion"},
		{"repair", "-backend", "posix,s3", "m.sion"},
		{"verify", "-mapping", "m.sion"},
	} {
		if _, stderr := sionRun(t, 2, args...); !strings.Contains(stderr, "usage: sion ") {
			t.Errorf("sion %s: no usage line on stderr:\n%s", strings.Join(args, " "), stderr)
		}
	}
}
