package workload

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	sion "repro/internal/core"
	"repro/internal/serve"
)

// rankReader is rank's bytes as a session; it counts its reads and closes
// and fails its Close with closeErr.
type rankReader struct {
	data     []byte
	reads    *int64
	closed   *int
	closeErr error
}

func (r rankReader) ReadLogicalAt(p []byte, off int64) (int, error) {
	*r.reads++
	return copy(p, r.data[off:]), nil
}

func (r rankReader) LogicalSize() int64 { return int64(len(r.data)) }

func (r rankReader) Close() error {
	*r.closed++
	return r.closeErr
}

// TestReplay drives a stream through a stack whose counts a hook can drop,
// as a node leaving a cluster drops its own: Replay checks every byte,
// opens one session per run of a client on a rank and closes each, and
// keeps the counts of a span the hook ended.
func TestReplay(t *testing.T) {
	data := [][]byte{[]byte("rank zero"), []byte("rank one!")}
	var reads, dropped int64
	opens, closed := 0, 0
	st := Stack{
		Open: func(_, rank int) (sion.LogicalReaderAt, error) {
			opens++
			return rankReader{data[rank], &reads, &closed, nil}, nil
		},
		count: func() Counts { return Counts{Stats: serve.Stats{Hits: reads - dropped}} },
	}
	want := func(rank int) []byte { return data[rank] }
	stream := []Request{{0, 0, 0, 4}, {0, 0, 5, 4}, {0, 1, 0, 9}, {1, 1, 2, 3}}
	got, err := Replay(st, stream, want, func(i int) {
		if i == 2 {
			dropped = reads // the stack forgets the first span
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Hits != 4 || opens != 3 || closed != 3 {
		t.Fatalf("counted %d reads over %d opens and %d closes, want 4, 3 and 3", got.Hits, opens, closed)
	}

	failing := func(openErr, closeErr error) Stack {
		return Stack{Open: func(_, rank int) (sion.LogicalReaderAt, error) {
			return rankReader{data[rank], &reads, &closed, closeErr}, openErr
		}}
	}
	for _, c := range []struct {
		st     Stack
		stream []Request
		want   func(int) []byte
		err    string
	}{
		{st, stream, func(rank int) []byte { return bytes.ToUpper(data[rank]) }, "bytes differ"},
		{st, []Request{{0, 1, 5, 5}}, want, "outside its 9 bytes"},
		{failing(errors.New("no such rank"), nil), stream, want, "open rank 0: no such rank"},
		{failing(nil, errors.New("close failed")), stream, want, "closing the last session: close failed"},
	} {
		if _, err := Replay(c.st, c.stream, c.want, nil); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("Replay = %v, want an error naming %q", err, c.err)
		}
	}
}
